// Package distxq is a from-scratch Go implementation of "Efficient
// Distribution of Full-Fledged XQuery" (Zhang, Tang, Boncz — ICDE 2009): an
// XQuery engine with automatic query decomposition over XRPC function
// shipping, under pass-by-value, pass-by-fragment, and pass-by-projection
// parameter-passing semantics.
//
// The public API is a thin facade over the internal packages. A typical use:
//
//	net := distxq.NewNetwork()
//	a := net.AddPeer("a.example.org")
//	_ = a.LoadXML("depts.xml", `<depts><dept name="hr"/></depts>`)
//	local := net.AddPeer("local")
//	sess := net.NewSession(local, distxq.ByProjection)
//	res, report, err := sess.Query(
//	    `doc("xrpc://a.example.org/depts.xml")//dept/@name`)
//
// Sessions decompose each query per the paper's dependency-graph analysis,
// execute the remote parts on the owning peers over XRPC, and report the
// bandwidth/time metrics the paper's evaluation uses. See DESIGN.md for the
// architecture and internal/bench (driven by bench_test.go and cmd/figures)
// for the reproduced figures.
package distxq

import (
	"io"
	"strings"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xq"
	"distxq/internal/xrpc"
)

// Strategy selects how queries over remote documents execute.
type Strategy = core.Strategy

// The four execution strategies of the paper's evaluation.
const (
	// DataShipping fetches whole remote documents (the W3C fn:doc model).
	DataShipping = core.DataShipping
	// ByValue ships function parameters/results as deep copies (§II).
	ByValue = core.ByValue
	// ByFragment groups shipped nodes in fragments, preserving identity,
	// order and ancestor relationships within a message (§V).
	ByFragment = core.ByFragment
	// ByProjection additionally prunes messages with runtime XML
	// projection, enabling reverse axes and root()/id() on shipped nodes
	// (§VI).
	ByProjection = core.ByProjection
)

// Network is a federation of XQuery peers (type alias into the engine).
type Network = peer.Network

// Peer is one XQuery engine hosting documents behind an XRPC endpoint.
type Peer = peer.Peer

// Session executes queries from an originating peer under one strategy.
type Session = peer.Session

// Report carries per-query bandwidth and phase-time measurements.
type Report = peer.Report

// ShardMap describes one logical document horizontally partitioned across
// peers; install it on a Session (Session.UseShards) to let the planner
// rewrite queries over the logical URI into concurrent scatter plans.
type ShardMap = core.ShardMap

// ShardDecision records one shard-rewrite outcome on a Report.
type ShardDecision = core.ShardDecision

// ErrUnknownShardPeer is returned when a shard map names a peer absent from
// the federation.
var ErrUnknownShardPeer = core.ErrUnknownShardPeer

// RetryPolicy configures per-lane fault tolerance of scatter dispatch:
// failed lanes re-issue to replicas (ShardMap.Replicas or
// Session.Replicas), straggling ones are hedged after HedgeAfter. Install
// it with Session.UseRetry.
type RetryPolicy = xrpc.RetryPolicy

// Sequence is an XQuery result sequence.
type Sequence = xdm.Sequence

// Item is one member of a result sequence: *Node or Atomic.
type Item = xdm.Item

// Node is an XML node with stable identity and document order.
type Node = xdm.Node

// Atomic is an atomic XQuery value.
type Atomic = xdm.Atomic

// NewNetwork creates an empty federation with an in-process transport and
// the paper's 1 Gb/s LAN cost model.
func NewNetwork() *Network { return peer.NewNetwork() }

// Serialize renders a result sequence as text: nodes as XML, atomics via
// their lexical form, space separated.
func Serialize(s Sequence) string {
	var sb strings.Builder
	_ = SerializeTo(&sb, s)
	return sb.String()
}

// SerializeTo writes s to w as Serialize renders it, stopping at the first
// write error. A writer implementing io.StringWriter (strings.Builder,
// bufio.Writer) receives the text without intermediate copies.
func SerializeTo(w io.Writer, s Sequence) error {
	for i, it := range s {
		if i > 0 {
			if _, err := io.WriteString(w, " "); err != nil {
				return err
			}
		}
		var err error
		switch v := it.(type) {
		case *xdm.Node:
			err = xdm.Serialize(w, v)
		case xdm.Atomic:
			_, err = io.WriteString(w, v.ItemString())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ExplainDecomposition parses and decomposes a query under the strategy and
// returns the rewritten query text with `execute at` annotations — useful to
// inspect what would run where.
func ExplainDecomposition(src string, strat Strategy) (string, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return "", err
	}
	plan, err := core.Decompose(q, strat, core.DefaultOptions())
	if err != nil {
		return "", err
	}
	return xq.PrintQuery(plan.Query), nil
}

// XMarkConfig configures the XMark-style data generator.
type XMarkConfig = xmark.Config

// XMarkPeopleShard generates one horizontal partition of the people
// document (person i lives on shard i%shards), for multi-peer federations.
func XMarkPeopleShard(c XMarkConfig, shard, shards int, uri string) *xdm.Document {
	return xmark.PeopleShardDocument(c, shard, shards, uri)
}

// ScatterQuery returns the multi-peer scatter-gather query over a sharded
// people federation: `for $p in $peers return execute at $p {...}`, which
// the engine dispatches as one concurrent Bulk RPC per peer.
func ScatterQuery(peers []string) string { return xmark.ScatterQuery(peers) }

// XMarkPeopleShardMap registers a sharded people federation as the logical
// document XMarkLogicalPeopleURI for the shard-aware planner.
func XMarkPeopleShardMap(peers []string) ShardMap { return xmark.PeopleShardMap(peers) }

// XMarkLogicalPeopleURI is the logical URI of the sharded people document.
const XMarkLogicalPeopleURI = xmark.LogicalPeopleURI

// XMarkDefaultConfig returns the default generator configuration.
func XMarkDefaultConfig() XMarkConfig { return xmark.DefaultConfig() }
