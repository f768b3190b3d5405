package distxq_test

import (
	"strings"
	"testing"

	"distxq"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	net := distxq.NewNetwork()
	remote := net.AddPeer("example.org")
	if err := remote.LoadXML("depts.xml",
		`<depts><dept name="hr"/><dept name="it"/></depts>`); err != nil {
		t.Fatal(err)
	}
	local := net.AddPeer("local")
	for _, strat := range []distxq.Strategy{
		distxq.DataShipping, distxq.ByValue, distxq.ByFragment, distxq.ByProjection,
	} {
		sess := net.NewSession(local, strat)
		res, rep, err := sess.Query(`doc("xrpc://example.org/depts.xml")//dept/@name`)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if got := distxq.Serialize(res); got != `name="hr" name="it"` {
			t.Errorf("%v: result = %s", strat, got)
		}
		if rep.TotalBytes() == 0 {
			t.Errorf("%v: nothing transferred?", strat)
		}
	}
}

func TestFacadeExplain(t *testing.T) {
	out, err := distxq.ExplainDecomposition(
		`doc("xrpc://a/d.xml")//x`, distxq.ByFragment)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `execute at {"a"}`) {
		t.Errorf("explain output lacks execute at: %s", out)
	}
	if _, err := distxq.ExplainDecomposition(`((`, distxq.ByFragment); err == nil {
		t.Error("syntax errors must surface")
	}
}

// TestREADMEExample keeps the README snippet honest.
func TestREADMEExample(t *testing.T) {
	net := distxq.NewNetwork()
	remote := net.AddPeer("example.org")
	_ = remote.LoadXML("depts.xml", `<depts><dept name="hr"/><dept name="it"/></depts>`)
	local := net.AddPeer("local")

	sess := net.NewSession(local, distxq.ByProjection)
	res, report, err := sess.Query(`doc("xrpc://example.org/depts.xml")//dept/@name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || report == nil {
		t.Errorf("res=%v report=%v", res, report)
	}
}

func TestFacadeScatterGather(t *testing.T) {
	net := distxq.NewNetwork()
	cfg := distxq.XMarkDefaultConfig()
	cfg.Persons, cfg.FillerBytes = 24, 16
	peers := []string{"p1", "p2", "p3"}
	for i, name := range peers {
		p := net.AddPeer(name)
		p.AddDoc("xmk.xml", distxq.XMarkPeopleShard(cfg, i, len(peers), "xrpc://"+name+"/xmk.xml"))
	}
	local := net.AddPeer("local")
	sess := net.NewSession(local, distxq.ByFragment)
	res, rep, err := sess.Query(distxq.ScatterQuery(peers))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("scatter query returned nothing")
	}
	if rep.Requests != int64(len(peers)) || rep.Parallelism != len(peers) {
		t.Errorf("requests=%d parallelism=%d, want one concurrent Bulk RPC per peer (%d)",
			rep.Requests, rep.Parallelism, len(peers))
	}
}
