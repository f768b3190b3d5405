package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"distxq/internal/core"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// hostedDoc is one generated document as the program under test receives
// it: XML text stored under a path on a named peer.
type hostedDoc struct {
	Peer, Path, XML string
}

// query pairs one query text with the oracle's expected serialized result.
type query struct {
	Src, Want string
}

// fixture is everything one workload run is made of: the generated
// documents, the operations (one op = its queries, in order) and the
// oracle's answers. The program under test sees only Docs and query text.
type fixture struct {
	Docs   []hostedDoc
	Peers  []string        // data peers in federation order
	Shards []core.ShardMap // installed on the service (plan_cold only)
	Ops    [][]query       // cycled: op i runs Ops[i%len(Ops)]
	// People is the oracle-side tree of the people document the per-layer
	// xdm and projection measurements run on.
	People *xdm.Document
}

const youngAge = 40 // every workload's age predicate is "age < 40"

// ---------------------------------------------------------- generation ----

// dealAges overwrites the generator's i.i.d. ages so that exactly
// len(persons)*22/32 of them are below youngAge, whichever persons the seed
// picks. Every cost a workload measures scales with the number of
// qualifying persons; left binomial it varies by ±3–5 % across seeds, more
// than the bounds the metrics are held to. Ages stay two digits, so
// document sizes do not change.
func dealAges(persons []*xdm.Node, rng *rand.Rand) {
	young := len(persons) * 22 / 32
	for i, pi := range rng.Perm(len(persons)) {
		age := youngAge + rng.Intn(10)
		if i < young {
			age = 18 + rng.Intn(youngAge-18)
		}
		ageText(persons[pi]).Text = strconv.Itoa(age)
	}
}

// dealSellers re-deals seller/@person so that exactly
// len(auctions)*22/32 auctions are sold by a young person (the semijoin's
// result cardinality), for the same reason as dealAges.
func dealSellers(auctions, persons []*xdm.Node, rng *rand.Rand) {
	var young, old []string
	for _, p := range persons {
		id := p.Attr("id").Text
		if ageOf(p) < youngAge {
			young = append(young, id)
		} else {
			old = append(old, id)
		}
	}
	hits := len(auctions) * 22 / 32
	for i, ai := range rng.Perm(len(auctions)) {
		from := old
		if i < hits {
			from = young
		}
		child(auctions[ai], "seller").Attr("person").Text = from[rng.Intn(len(from))]
	}
}

func child(n *xdm.Node, name string) *xdm.Node {
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && c.Name == name {
			return c
		}
	}
	panic(fmt.Sprintf("benchmark: <%s> has no <%s> child", n.Name, name))
}

func elems(n *xdm.Node, name string) []*xdm.Node {
	var out []*xdm.Node
	for _, c := range n.Children {
		if c.Kind == xdm.ElementNode && (name == "*" || c.Name == name) {
			out = append(out, c)
		}
	}
	return out
}

func ageText(person *xdm.Node) *xdm.Node { return child(child(person, "profile"), "age").Children[0] }

func ageOf(person *xdm.Node) int {
	a, err := strconv.Atoi(ageText(person).Text)
	if err != nil {
		panic(err)
	}
	return a
}

func text(n *xdm.Node) string { return n.Children[0].Text }

func personsOf(d *xdm.Document) []*xdm.Node {
	return elems(child(d.DocElem(), "people"), "person")
}

func itemsOf(d *xdm.Document) []*xdm.Node {
	var out []*xdm.Node
	for _, region := range elems(child(d.DocElem(), "regions"), "*") {
		out = append(out, elems(region, "item")...)
	}
	return out
}

func peerNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("peer%d", i+1)
	}
	return out
}

// shardedPeople generates the people federation of the scatter workloads
// (bench.NewScatterFixture's layout: person i on shard i%peers, every shard
// stored as xmk.xml) with dealt ages.
func shardedPeople(peopleBytes int64, peers int, seed uint64, rng *rand.Rand) (names []string, shards []*xdm.Document) {
	cfg := xmark.ForSize(peopleBytes * 2) // the people document is half of a fixture
	cfg.Seed = seed
	names = peerNames(peers)
	var all []*xdm.Node
	for i, name := range names {
		d := xmark.PeopleShardDocument(cfg, i, peers, "xrpc://"+name+"/"+xmark.PeopleShardPath)
		shards = append(shards, d)
		all = append(all, personsOf(d)...)
	}
	dealAges(all, rng)
	return names, shards
}

func host(f *fixture, peer, path string, d *xdm.Document) {
	f.Docs = append(f.Docs, hostedDoc{Peer: peer, Path: path, XML: xdm.SerializeString(d.Root)})
}

// ------------------------------------------------------------- oracles ----
//
// Expected results come from plain walks over the generated trees and
// hand-built strings: no parser, evaluator or serializer of the program
// under test is involved.

func nameXML(person *xdm.Node) string { return "<name>" + text(child(person, "name")) + "</name>" }

// youngNames is the scatter answer: names of persons below the age limit,
// shard-major in federation order.
func youngNames(shards []*xdm.Document, below int) string {
	var out []string
	for _, d := range shards {
		for _, p := range personsOf(d) {
			if ageOf(p) < below {
				out = append(out, nameXML(p))
			}
		}
	}
	return strings.Join(out, " ")
}

// semijoinAuthors is the §VII answer: annotation authors of the auctions
// whose seller is a person below the age limit, in auction order.
func semijoinAuthors(people, auctions *xdm.Document) string {
	young := map[string]bool{}
	for _, p := range personsOf(people) {
		if ageOf(p) < youngAge {
			young[p.Attr("id").Text] = true
		}
	}
	var out []string
	for _, a := range elems(child(auctions.DocElem(), "open_auctions"), "open_auction") {
		if young[child(a, "seller").Attr("person").Text] {
			author := child(child(a, "annotation"), "author")
			out = append(out, `<author person="`+author.Attr("person").Text+`"/>`)
		}
	}
	return strings.Join(out, " ")
}

// ----------------------------------------------------------- workloads ----

const localDoc = "xmk.xml"

// localEvalQueries is the fixed round of the local_eval workload. The
// document lives on the originator under a plain path, so nothing is
// decomposed and no message is sent.
var localEvalQueries = [7]string{
	`count(doc("xmk.xml")/descendant::person[descendant::age < 40])`,
	`for $p in doc("xmk.xml")/child::site/child::people/child::person
	 where $p/child::profile/child::age < 40 return $p/child::name`,
	`sum(doc("xmk.xml")/child::site/child::regions/child::*/child::item/child::quantity)`,
	// Over ages, not names: fn:distinct-values keys every untyped value as a
	// number, so it collapses non-numeric strings to one value.
	`distinct-values(doc("xmk.xml")/child::site/child::people/child::person/child::profile/child::age)`,
	`for $i in subsequence(doc("xmk.xml")/child::site/child::regions/child::*/child::item, 1, 300)
	 return <offer>{$i/attribute::id}<n>{$i/child::name/text()}</n>{$i/child::payment}</offer>`,
	`for $p in doc("xmk.xml")/child::site/child::people/child::person
	 order by $p/child::profile/attribute::income descending return $p/child::emailaddress/text()`,
	`string-join(doc("xmk.xml")/child::site/child::people/child::person/child::name, ",")`,
}

func genLocalEval(seed uint64) *fixture { return localEvalFixture(seed, 1<<20) }

func localEvalFixture(seed uint64, peopleBytes int64) *fixture {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := xmark.ForSize(peopleBytes * 2) // the people document is half of a fixture
	cfg.Seed = seed
	d := xmark.PeopleDocument(cfg, localDoc)
	persons, items := personsOf(d), itemsOf(d)
	dealAges(persons, rng)

	var want [7]string
	young, ages, seen := 0, []string{}, map[string]bool{}
	var youngNames, names, offers []string
	for _, p := range persons {
		if ageOf(p) < youngAge {
			young++
			youngNames = append(youngNames, nameXML(p))
		}
		if a := ageText(p).Text; !seen[a] {
			seen[a] = true
			ages = append(ages, a)
		}
		names = append(names, text(child(p, "name")))
	}
	quantity := 0
	for _, it := range items {
		q, err := strconv.Atoi(text(child(it, "quantity")))
		if err != nil {
			panic(err)
		}
		quantity += q
	}
	for _, it := range items[:min(300, len(items))] {
		offers = append(offers, `<offer id="`+it.Attr("id").Text+`"><n>`+text(child(it, "name"))+
			`</n><payment>`+text(child(it, "payment"))+`</payment></offer>`)
	}
	byIncome := append([]*xdm.Node(nil), persons...)
	sort.SliceStable(byIncome, func(i, j int) bool {
		return child(byIncome[i], "profile").Attr("income").Text > child(byIncome[j], "profile").Attr("income").Text
	})
	var emails []string
	for _, p := range byIncome {
		emails = append(emails, text(child(p, "emailaddress")))
	}
	want[0] = strconv.Itoa(young)
	want[1] = strings.Join(youngNames, " ")
	want[2] = strconv.Itoa(quantity)
	want[3] = strings.Join(ages, " ")
	want[4] = strings.Join(offers, " ")
	want[5] = strings.Join(emails, " ")
	want[6] = strings.Join(names, ",")

	f := &fixture{People: d}
	host(f, originPeer, localDoc, d)
	round := make([]query, len(localEvalQueries))
	for i, src := range localEvalQueries {
		round[i] = query{Src: src, Want: want[i]}
	}
	f.Ops = [][]query{round}
	return f
}

// planColdTexts is how many distinct query texts plan_cold cycles through
// the 128-entry plan cache: every lookup misses and every insert evicts.
const planColdTexts = 512

func genPlanCold(seed uint64) *fixture {
	rng := rand.New(rand.NewSource(int64(seed)))
	names, shards := shardedPeople(16<<10, 4, seed, rng)
	f := &fixture{Peers: names, Shards: []core.ShardMap{xmark.PeopleShardMap(names)}, People: shards[0]}
	onPeer1 := map[string]bool{}
	for i, d := range shards {
		host(f, names[i], xmark.PeopleShardPath, d)
	}
	for _, p := range personsOf(shards[0]) {
		onPeer1[p.Attr("id").Text] = true
	}
	// Each of the three templates takes its constant from a seeded
	// permutation, so every run plans the same set of texts in another order.
	// The age limits start above every age: with ten persons the results'
	// size would otherwise swing with the seed's ages by more than the wire
	// metric's bound, and this workload is about planning, not selection.
	perm := rng.Perm((planColdTexts + 2) / 3)
	for i := 0; i < planColdTexts; i++ {
		k := 50 + perm[i/3]
		var q query
		switch i % 3 {
		case 0: // logical document → shardRewrite synthesizes the scatter loop
			q.Src = fmt.Sprintf(`for $x in doc(%q)/child::site/child::people/child::person
return if ($x/descendant::age < %d) then $x/child::name else ()`, xmark.LogicalPeopleURI, k)
			q.Want = youngNames(shards, k)
		case 1: // Bulk RPC: a declared function called in a loop at one peer
			ids, counts := make([]string, 4), make([]string, 4)
			for j := range ids {
				id := fmt.Sprintf("person%d", k+j)
				ids[j], counts[j] = strconv.Quote(id), "0"
				if onPeer1[id] {
					counts[j] = "1"
				}
			}
			q.Src = fmt.Sprintf(`declare function f($n as xs:string) as item()*
{ count(doc("xrpc://peer1/xmk.xml")//person[attribute::id = $n]) };
for $i in (%s) return execute at {"peer1"} { f($i) }`, strings.Join(ids, ", "))
			q.Want = strings.Join(counts, " ")
		case 2: // single-peer path
			q.Src = fmt.Sprintf(`doc("xrpc://peer2/xmk.xml")/child::site/child::people/child::person[descendant::age < %d]/child::name`, k)
			q.Want = youngNames(shards[1:2], k)
		}
		f.Ops = append(f.Ops, []query{q})
	}
	return f
}

// genScatter is the fixture of scatter_gather, scatter_stream and
// http_scatter: bench.NewScatterFixture(512 KiB, 4) with dealt ages.
func genScatter(seed uint64) *fixture { return scatterFixture(seed, 1<<19) }

func scatterFixture(seed uint64, peopleBytes int64) *fixture {
	rng := rand.New(rand.NewSource(int64(seed)))
	names, shards := shardedPeople(peopleBytes, 4, seed, rng)
	f := &fixture{Peers: names, People: shards[0]}
	for i, d := range shards {
		host(f, names[i], xmark.PeopleShardPath, d)
	}
	f.Ops = [][]query{{{Src: xmark.ScatterQuery(names), Want: youngNames(shards, youngAge)}}}
	return f
}

// genSemijoin is bench.NewFixture(512 KiB): people on peer1, auctions on
// peer2, the paper's §VII query.
func genSemijoin(seed uint64) *fixture { return semijoinFixture(seed, 1<<19) }

func semijoinFixture(seed uint64, totalBytes int64) *fixture {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := xmark.ForSize(totalBytes)
	cfg.Seed = seed
	people := xmark.PeopleDocument(cfg, "xrpc://peer1/xmk.xml")
	auctions := xmark.AuctionsDocument(cfg, "xrpc://peer2/xmk.auctions.xml")
	dealAges(personsOf(people), rng)
	dealSellers(elems(child(auctions.DocElem(), "open_auctions"), "open_auction"), personsOf(people), rng)
	f := &fixture{Peers: peerNames(2), People: people}
	host(f, "peer1", "xmk.xml", people)
	host(f, "peer2", "xmk.auctions.xml", auctions)
	f.Ops = [][]query{{{Src: xmark.BenchmarkQuery("peer1", "peer2"), Want: semijoinAuthors(people, auctions)}}}
	return f
}
