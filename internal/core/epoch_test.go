package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestShardMapCloneIsDeep(t *testing.T) {
	m := ShardMap{Logical: "shard://t/d", Peers: []string{"a", "b"}, Replicas: [][]string{{"r1"}, {"r2"}}, Epoch: 3}
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("clone %+v differs from %+v", c, m)
	}
	c.Peers[0], c.Replicas[1][0] = "x", "y"
	c.Replicas[0] = append(c.Replicas[0], "z")
	if m.Peers[0] != "a" || m.Replicas[1][0] != "r2" || len(m.Replicas[0]) != 1 {
		t.Errorf("mutating the clone changed the original: %+v", m)
	}
}

func TestSortedIndexes(t *testing.T) {
	for _, c := range []struct {
		in   map[int]string
		want []int
	}{
		{nil, []int{}},
		{map[int]string{0: "a"}, []int{0}},
		{map[int]string{3: "c", 1: "a", 2: "b", -1: "z"}, []int{-1, 1, 2, 3}},
	} {
		if got := sortedIndexes(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sortedIndexes(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestShardOwner(t *testing.T) {
	m := ShardMap{Peers: []string{"a", "b", "c"}, Replicas: [][]string{{"r"}}}
	for peer, want := range map[string]int{"a": 0, "c": 2, "r": -1, "": -1} {
		if got := m.ShardOwner(peer); got != want {
			t.Errorf("ShardOwner(%q) = %d, want %d", peer, got, want)
		}
	}
}

// TestApplyDelta walks every branch of a topology change: each operation's
// effect, the fixed Join → Move → AddReplicas → DropReplicas → Leave order,
// and every rejection — the receiver never changes and a rejection returns
// the zero map.
func TestApplyDelta(t *testing.T) {
	base := func(replicas ...[]string) ShardMap {
		return ShardMap{Logical: "shard://t/d", Peers: []string{"a", "b"}, ShardPath: "d.xml",
			RecordPath: "child::r", Replicas: replicas, Epoch: 7}
	}
	for _, c := range []struct {
		name         string
		from         ShardMap
		delta        ShardDelta
		wantPeers    []string
		wantReplicas [][]string
		wantErr      string
	}{
		{name: "empty delta bumps the epoch only", from: base(),
			wantPeers: []string{"a", "b"}},
		{name: "join then move onto the joiner demotes the old primary", from: base(),
			delta:     ShardDelta{Join: []string{"c"}, Move: map[int]string{0: "c"}},
			wantPeers: []string{"c", "b"}, wantReplicas: [][]string{{"a"}}},
		{name: "move onto a replica swaps it with the primary", from: base([]string{"r1", "r2"}),
			delta:     ShardDelta{Move: map[int]string{0: "r2"}},
			wantPeers: []string{"r2", "b"}, wantReplicas: [][]string{{"a", "r1"}}},
		{name: "add replicas, unreplicated shards keep empty slots", from: base(),
			delta:     ShardDelta{AddReplicas: map[int][]string{1: {"x", "y"}}},
			wantPeers: []string{"a", "b"}, wantReplicas: [][]string{nil, {"x", "y"}}},
		{name: "drop replicas, trailing empty slots trimmed", from: base([]string{"x"}, []string{"y", "z"}),
			delta:     ShardDelta{DropReplicas: map[int][]string{1: {"y", "z"}}},
			wantPeers: []string{"a", "b"}, wantReplicas: [][]string{{"x"}}},
		{name: "leaving primary promotes its first surviving replica", from: base([]string{"r1", "r2"}),
			delta:     ShardDelta{Leave: []string{"a", "r1"}},
			wantPeers: []string{"r2", "b"}},
		{name: "leaving replica is dropped everywhere", from: base([]string{"x"}, []string{"x", "y"}),
			delta:     ShardDelta{Leave: []string{"x"}},
			wantPeers: []string{"a", "b"}, wantReplicas: [][]string{nil, {"y"}}},
		{name: "add then leave in one delta", from: base(),
			delta:     ShardDelta{AddReplicas: map[int][]string{0: {"n"}}, Leave: []string{"a"}},
			wantPeers: []string{"n", "b"}},

		{name: "empty join peer", from: base(), delta: ShardDelta{Join: []string{""}},
			wantErr: "epoch 8: empty join peer"},
		{name: "move out of range", from: base(), delta: ShardDelta{Move: map[int]string{2: "a"}},
			wantErr: "move names shard 2 of 2"},
		{name: "move onto the current primary", from: base(), delta: ShardDelta{Move: map[int]string{1: "b"}},
			wantErr: "shard 1 already lives on b"},
		{name: "move onto a peer without a copy", from: base(), delta: ShardDelta{Move: map[int]string{0: "c"}},
			wantErr: "move target c holds no copy of shard 0"},
		{name: "move makes two shards share a primary", from: base([]string{"b"}), delta: ShardDelta{Move: map[int]string{0: "b"}},
			wantErr: "shards 0 and 1 share primary b"},
		{name: "replica add out of range", from: base(), delta: ShardDelta{AddReplicas: map[int][]string{-1: {"x"}}},
			wantErr: "replica add names shard -1 of 2"},
		{name: "replica is its own primary", from: base(), delta: ShardDelta{AddReplicas: map[int][]string{0: {"a"}}},
			wantErr: "replica a of shard 0 is its primary"},
		{name: "duplicate replica", from: base([]string{"x"}), delta: ShardDelta{AddReplicas: map[int][]string{0: {"x"}}},
			wantErr: "duplicate replica x of shard 0"},
		{name: "replica drop out of range", from: base(), delta: ShardDelta{DropReplicas: map[int][]string{5: {"x"}}},
			wantErr: "replica drop names shard 5 of 2"},
		{name: "dropping a non-replica", from: base([]string{"x"}), delta: ShardDelta{DropReplicas: map[int][]string{0: {"y"}}},
			wantErr: "dropping y, not a replica of shard 0"},
		{name: "unreplicated primary leaves", from: base(), delta: ShardDelta{Leave: []string{"b"}},
			wantErr: "shard 1 loses its last copy when b leaves"},
		{name: "primary and every replica leave", from: base([]string{"r"}), delta: ShardDelta{Leave: []string{"r", "a"}},
			wantErr: "shard 0 loses its last copy when a leaves"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := c.from.Clone()
			got, err := c.from.ApplyDelta(c.delta)
			if fmt.Sprintf("%q", c.from) != fmt.Sprintf("%q", before) {
				t.Fatalf("ApplyDelta modified its receiver: %+v, was %+v", c.from, before)
			}
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.HasPrefix(err.Error(), "core: shard://t/d") {
					t.Fatalf("err = %v, want one naming the document and %q", err, c.wantErr)
				}
				if !reflect.DeepEqual(got, ShardMap{}) {
					t.Fatalf("rejected delta returned %+v, want the zero map", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Epoch != c.from.Epoch+1 || got.Logical != c.from.Logical || got.ShardPath != c.from.ShardPath || got.RecordPath != c.from.RecordPath {
				t.Errorf("next epoch %+v: want epoch %d and the same document", got, c.from.Epoch+1)
			}
			if !reflect.DeepEqual(got.Peers, c.wantPeers) {
				t.Errorf("peers %v, want %v", got.Peers, c.wantPeers)
			}
			if len(got.Replicas) != len(c.wantReplicas) {
				t.Fatalf("replicas %q, want %q", got.Replicas, c.wantReplicas)
			}
			for i := range got.Replicas {
				if strings.Join(got.Replicas[i], ",") != strings.Join(c.wantReplicas[i], ",") {
					t.Errorf("replicas %q, want %q", got.Replicas, c.wantReplicas)
				}
			}
		})
	}
}
