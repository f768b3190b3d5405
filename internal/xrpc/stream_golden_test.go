package xrpc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
)

// timingAttr matches the wall-clock attributes of a frame, whose digits
// differ from run to run.
var timingAttr = regexp.MustCompile(`(exec-ns|serde-ns)="[0-9]+"`)

// streamFrameCases are the shipped calls TestStreamFramesGolden streams: the
// scatter query's young() over one small seeded shard, called twice in one
// Bulk RPC, and the two-document comma of
// TestHandleStreamFirstFrameMidEvaluation.
func streamFrameCases(t *testing.T) []struct {
	name, module, method string
	calls                int
	docs                 eval.ResolverFunc
} {
	t.Helper()
	src := xmark.ScatterQuery([]string{"peer1"})
	young := strings.TrimSpace(src[:strings.Index(src, "};")+2])
	cfg := xmark.DefaultConfig()
	cfg.Seed, cfg.Persons, cfg.FillerBytes = 7, 160, 0
	shard := xmark.PeopleShardDocument(cfg, 1, 4, "xrpc://peer1/"+xmark.PeopleShardPath)
	people := eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		if uri != xmark.PeopleShardPath {
			return nil, fmt.Errorf("no such document %q", uri)
		}
		return shard, nil
	})
	pair := eval.ResolverFunc(func(uri string) (*xdm.Document, error) {
		switch uri {
		case "fast.xml":
			return xdm.ParseString("<r><x>1</x><x>2</x><x>3</x><x>4</x></r>", uri)
		case "slow.xml":
			return xdm.ParseString("<r><x>5</x><x>6</x></r>", uri)
		}
		return nil, fmt.Errorf("no such document %q", uri)
	})
	return []struct {
		name, module, method string
		calls                int
		docs                 eval.ResolverFunc
	}{
		{"young", young, "young", 2, people},
		{"comma", `declare function f($p as item()*) as item()* { (doc("fast.xml")/child::r/child::x, doc("slow.xml")/child::r/child::x) };`, "f", 1, pair},
	}
}

// TestStreamFramesGolden pins the chunk frames HandleStream emits, with
// their exec-ns and serde-ns digits zeroed, for ChunkItems 1, 4 and 32
// under by-fragment and by-value: frame boundaries are the writer's, so a
// change to how the evaluator hands results over moves no byte.
func TestStreamFramesGolden(t *testing.T) {
	dir := filepath.Join("testdata", "stream")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := 0
	for _, c := range streamFrameCases(t) {
		for _, sem := range []Semantics{ByFragment, ByValue} {
			req := &Request{Method: c.method, Semantics: sem, Module: c.module, Static: eval.DefaultStatic()}
			for i := 0; i < c.calls; i++ {
				call := []xdm.Sequence{}
				if c.method == "f" {
					call = []xdm.Sequence{xdm.Singleton(xdm.NewString("p"))}
				}
				req.Calls = append(req.Calls, call)
			}
			req.Arity = len(req.Calls[0])
			request, err := MarshalRequest(req, nil, nil, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 4, 32} {
				srv := &Server{Engine: eval.NewEngine(c.docs), ChunkItems: chunk}
				var got bytes.Buffer
				if err := srv.HandleStream(request, func(frame []byte) error {
					got.Write(timingAttr.ReplaceAll(frame, []byte(`$1="0"`)))
					got.WriteByte('\n')
					return nil
				}); err != nil {
					t.Fatalf("%s %s chunk %d: %v", c.name, sem, chunk, err)
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.xml", c.name, sem, chunk))
				files++
				if *update {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run `go test ./internal/xrpc -run TestStreamFramesGolden -update`): %v", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: stream frames changed\n got %s\nwant %s", path, got.Bytes(), want)
				}
			}
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.xml")); len(matches) != files {
		t.Errorf("%d golden files for %d streams: a stale golden is no longer produced", len(matches), files)
	}
}
