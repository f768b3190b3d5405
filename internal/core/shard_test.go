package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"distxq/internal/testkit"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

func peopleShardMap(peers ...string) ShardMap {
	return ShardMap{
		Logical:    "shard://t/people",
		Peers:      peers,
		ShardPath:  "p.xml",
		RecordPath: "child::site/child::people/child::person",
	}
}

func TestValidateShards(t *testing.T) {
	known := map[string]bool{"a": true, "b": true}
	cases := []struct {
		name    string
		m       ShardMap
		known   map[string]bool
		wantErr string
	}{
		{name: "valid", m: peopleShardMap("a", "b"), known: known},
		{name: "valid without peer set", m: peopleShardMap("ghost")},
		{name: "no logical", m: ShardMap{Peers: []string{"a"}, ShardPath: "p", RecordPath: "child::r"},
			wantErr: "without a logical URI"},
		{name: "xrpc logical", m: ShardMap{Logical: "xrpc://a/p.xml", Peers: []string{"a"}, ShardPath: "p", RecordPath: "child::r"},
			wantErr: "must not use the xrpc:// scheme"},
		{name: "no peers", m: ShardMap{Logical: "shard://t/x", ShardPath: "p", RecordPath: "child::r"},
			wantErr: "no peers"},
		{name: "no shard path", m: ShardMap{Logical: "shard://t/x", Peers: []string{"a"}, RecordPath: "child::r"},
			wantErr: "no shard path"},
		{name: "empty record path", m: ShardMap{Logical: "shard://t/x", Peers: []string{"a"}, ShardPath: "p", RecordPath: "()"},
			wantErr: "record path"},
		{name: "record path with predicate", m: ShardMap{Logical: "shard://t/x", Peers: []string{"a"}, ShardPath: "p", RecordPath: "child::r[1]"},
			wantErr: "predicate-free child:: steps"},
		{name: "record path descendant axis", m: ShardMap{Logical: "shard://t/x", Peers: []string{"a"}, ShardPath: "p", RecordPath: "descendant::r"},
			wantErr: "predicate-free child:: steps"},
		{name: "record path text test", m: ShardMap{Logical: "shard://t/x", Peers: []string{"a"}, ShardPath: "p", RecordPath: "child::text()"},
			wantErr: "element names"},
		{name: "unknown peer", m: peopleShardMap("a", "ghost"), known: known,
			wantErr: "ghost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateShards(Options{Shards: []ShardMap{tc.m}, KnownPeers: tc.known})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
			if tc.name == "unknown peer" && !errors.Is(err, ErrUnknownShardPeer) {
				t.Fatalf("unknown peer error is not ErrUnknownShardPeer: %v", err)
			}
		})
	}
}

// TestDecomposeUnknownShardPeer locks the ride-along bugfix at the Decompose
// boundary: a bad shard map fails the plan outright for every strategy,
// including data shipping.
func TestDecomposeUnknownShardPeer(t *testing.T) {
	for _, strat := range []Strategy{DataShipping, ByValue, ByFragment, ByProjection} {
		q, err := xq.ParseQuery(`doc("shard://t/people")/child::site`)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Shards = []ShardMap{peopleShardMap("nobody")}
		opts.KnownPeers = map[string]bool{"a": true}
		if _, err := Decompose(q, strat, opts); !errors.Is(err, ErrUnknownShardPeer) {
			t.Fatalf("%s: want ErrUnknownShardPeer, got %v", strat, err)
		}
	}
}

func shardDoc(t *testing.T, xml string) *xdm.Document {
	t.Helper()
	d, err := xdm.ParseString(xml, "test://shard")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMaterialize(t *testing.T) {
	m := peopleShardMap("a", "b")
	docs := map[string]*xdm.Document{
		"a": shardDoc(t, `<site><people><person id="p0"/><person id="p2"/></people></site>`),
		"b": shardDoc(t, `<site><people><person id="p1"/><person id="p3"/></people></site>`),
	}
	fetch := func(p string) (*xdm.Document, error) {
		d, ok := docs[p]
		if !ok {
			return nil, fmt.Errorf("no shard at %s", p)
		}
		return d, nil
	}
	union, err := m.Materialize(m.Logical, fetch)
	if err != nil {
		t.Fatal(err)
	}
	got := xdm.SerializeString(union.Root)
	want := `<site><people><person id="p0"/><person id="p2"/><person id="p1"/><person id="p3"/></people></site>`
	if got != want {
		t.Fatalf("union = %s, want %s", got, want)
	}
	if !union.Frozen() {
		t.Fatal("materialized union is not frozen")
	}

	// Fetch failure propagates with shard context.
	bad := peopleShardMap("a", "ghost")
	if _, err := bad.Materialize(bad.Logical, fetch); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("want fetch error naming ghost, got %v", err)
	}

	// A shard missing the skeleton is an error, not silent truncation.
	docs["b"] = shardDoc(t, `<site><items/></site>`)
	if _, err := m.Materialize(m.Logical, fetch); err == nil || !strings.Contains(err.Error(), "skeleton") {
		t.Fatalf("want skeleton error, got %v", err)
	}
}

// TestScatterReasons pins each fallback condition to its reason string via
// the full rewrite entry point.
func TestScatterReasons(t *testing.T) {
	const pre = `doc("shard://t/people")/child::site/child::people/child::person`
	cases := []struct {
		name string
		src  string
		want string // substring of the top decision's reason; "" = scattered
	}{
		{"plain path scatters", pre + `/child::name`, ""},
		{"filtered path scatters", pre + `[child::age > 30]`, ""},
		{"flwor scatters", `for $x in ` + pre + ` return $x/child::name`, ""},
		{"bare doc", `doc("shard://t/people")`, "stops above the record sequence"},
		{"skeleton path", `doc("shard://t/people")/child::site`, "stops above the record sequence"},
		{"wrong prefix", `doc("shard://t/people")/child::site/child::regions/child::item`, "does not follow the record path"},
		{"predicate above record", `doc("shard://t/people")/child::site/child::people[child::x]/child::person`, "predicate above the record step"},
		{"numeric predicate", pre + `[3]`, "select by position"},
		{"position predicate", pre + `[position() = 1]`, "positional context function"},
		{"postfix filter", `(` + pre + `)[2]`, "select by position"},
		{"order by", `for $x in ` + pre + ` order by $x/child::age return $x`, "order by over the record loop"},
		{"reverse axis", pre + `/parent::people`, "axis can escape the record subtree"},
		{"following axis in body", `for $x in ` + pre + ` return $x/following-sibling::person`, "axis can escape the record subtree"},
		{"absolute path in body", `for $x in ` + pre + ` return /child::site`, "absolute path escapes"},
		{"second doc", `for $x in ` + pre + ` return count(doc("other.xml"))`, "additional document access"},
		{"fn root", `for $x in ` + pre + ` return root($x)`, "escapes the record subtree"},
		{"fn last in body", `for $x in ` + pre + ` return last()`, "positional context function"},
		{"document-uri", `for $x in ` + pre + ` return document-uri($x)`, "observes shard document identity"},
		{"user function call", `declare function nm($y as item()*) as item()* { $y/child::name };
			for $x in ` + pre + ` return nm($x)`, "user-declared function"},
		{"node comp with param", `let $o := element e {} return for $x in ` + pre + ` return $x is $o`, "node comparison against shipped parameter"},
		{"set op with param", `let $o := element e {} return for $x in ` + pre + ` return $x union $o`, "node-set operator mixes"},
	}
	maps := []ShardMap{peopleShardMap("a", "b")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := xq.ParseQuery(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := xq.Normalize(q); err != nil {
				t.Fatal(err)
			}
			AlphaRename(q)
			dec, err := shardRewrite(q, ByFragment, maps)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) == 0 {
				t.Fatalf("no decision recorded for %s", tc.src)
			}
			if tc.want == "" {
				if !dec[0].Scattered {
					t.Fatalf("expected scatter, got fallback %q", dec[0].Reason)
				}
				if dec[0].X == nil || dec[0].X.FuncName == "" {
					t.Fatalf("scattered decision lacks the synthesized call: %+v", dec[0])
				}
				return
			}
			if dec[0].Scattered {
				t.Fatalf("expected fallback mentioning %q, got scatter", tc.want)
			}
			if !strings.Contains(dec[0].Reason, tc.want) {
				t.Fatalf("reason %q does not mention %q", dec[0].Reason, tc.want)
			}
		})
	}
}

// TestSynthScatterShape checks the synthesized loop literally: peers in
// order, the loop variable as target, shard-path retargeting, and free
// variables shipped as parameters.
func TestSynthScatterShape(t *testing.T) {
	q, err := xq.ParseQuery(`let $k := 30 return
		for $x in doc("shard://t/people")/child::site/child::people/child::person
		return if ($x/child::age > $k) then $x/child::name else ()`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	AlphaRename(q)
	dec, err := shardRewrite(q, ByFragment, []ShardMap{peopleShardMap("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || !dec[0].Scattered {
		t.Fatalf("want one scattered decision, got %+v", dec)
	}
	x := dec[0].X
	printed := xq.PrintQuery(q)
	if !strings.Contains(printed, `("a", "b")`) {
		t.Fatalf("loop does not iterate the peer list:\n%s", printed)
	}
	if len(x.Params) != 1 || x.Params[0].Ref != "k" {
		t.Fatalf("free variable $k not shipped as parameter: %+v", x.Params)
	}
	if _, ok := x.Target.(*xq.VarRef); !ok {
		t.Fatalf("scatter target is %T, want the loop variable", x.Target)
	}
	body := testkit.Print(x.Body)
	if !strings.Contains(body, `doc("p.xml")`) || strings.Contains(body, "shard://") {
		t.Fatalf("body not retargeted at the shard path:\n%s", body)
	}
}
