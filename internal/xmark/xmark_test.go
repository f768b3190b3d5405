package xmark

import (
	"strings"
	"testing"

	"distxq/internal/xdm"
)

func TestForSizeHitsTarget(t *testing.T) {
	for _, target := range []int64{1 << 16, 1 << 18, 1 << 20} {
		cfg := ForSize(target)
		people := PeopleDocument(cfg, "p")
		auctions := AuctionsDocument(cfg, "a")
		got := xdm.SerializedSize(people.Root) + xdm.SerializedSize(auctions.Root)
		ratio := float64(got) / float64(target)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("ForSize(%d) produced %d bytes (ratio %.2f)", target, got, ratio)
		}
	}
}

func TestPeopleDocumentStructure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Persons, cfg.Items = 10, 5
	d := PeopleDocument(cfg, "p")
	site := d.DocElem()
	if site.Name != "site" {
		t.Fatalf("root = %s", site.Name)
	}
	var persons, ages, items int
	site.WalkDescendants(func(n *xdm.Node) bool {
		switch n.Name {
		case "person":
			persons++
			if n.Attr("id") == nil {
				t.Error("person without @id")
			}
		case "age":
			ages++
		case "item":
			items++
		}
		return true
	})
	if persons != 10 || ages != 10 || items != 5 {
		t.Errorf("persons=%d ages=%d items=%d", persons, ages, items)
	}
}

func TestAgesWithinBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Persons, cfg.Items = 50, 0
	cfg.MinAge, cfg.MaxAge = 20, 30
	d := PeopleDocument(cfg, "p")
	d.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Name == "age" {
			v := n.StringValue()
			if v < "20" || v >= "30" {
				t.Errorf("age %s out of [20,30)", v)
			}
		}
		return true
	})
}

func TestSellerRefsResolve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Persons, cfg.Auctions, cfg.Items = 8, 20, 0
	people := PeopleDocument(cfg, "p")
	auctions := AuctionsDocument(cfg, "a")
	ids := map[string]bool{}
	people.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Name == "person" {
			ids[n.Attr("id").Text] = true
		}
		return true
	})
	auctions.Root.WalkDescendants(func(n *xdm.Node) bool {
		if n.Name == "seller" {
			if !ids[n.Attr("person").Text] {
				t.Errorf("seller ref %q does not resolve", n.Attr("person").Text)
			}
		}
		return true
	})
}

func TestDocumentsReparse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Persons, cfg.Auctions, cfg.Items = 5, 5, 5
	for name, d := range map[string]*xdm.Document{
		"people":   PeopleDocument(cfg, "p"),
		"auctions": AuctionsDocument(cfg, "a"),
	} {
		s := xdm.SerializeString(d.Root)
		if _, err := xdm.ParseString(s, name); err != nil {
			t.Errorf("%s does not reparse: %v", name, err)
		}
	}
}

func TestBenchmarkQueryMentionsPeers(t *testing.T) {
	q := BenchmarkQuery("h1", "h2")
	if !strings.Contains(q, "xrpc://h1/xmk.xml") ||
		!strings.Contains(q, "xrpc://h2/xmk.auctions.xml") {
		t.Errorf("query lacks peer URIs:\n%s", q)
	}
}

func TestFillerApproximatesSize(t *testing.T) {
	r := newRNG(1)
	for _, n := range []int{10, 100, 1000} {
		f := r.filler(n)
		if len(f) < n || len(f) > n+20 {
			t.Errorf("filler(%d) = %d bytes", n, len(f))
		}
	}
	if r.filler(0) != "" {
		t.Error("filler(0) should be empty")
	}
}
