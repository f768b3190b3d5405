package daemon

// The regime mutates process-global runtime state, so these tests live in
// this package's own test binary, and the operator-override cases run in a
// subprocess whose environment carries GOGC or GOMEMLIMIT.

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestGCPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		live uint64
		want int
	}{
		{0, 800},           // nothing live: the min-heap solution (0 + 32 MiB)/4 MiB
		{1 * mib, 825},     // min-heap term wins: (1 + 32)/4, not 32/1 = 3200
		{mib * 3 / 2, 837}, // min-heap (1.5 + 32)/4 under proportional 32/1.5 = 2133
		{4 * mib, 800},     // proportional 32/4, under min-heap (4 + 32)/4 = 900
		{8 * mib, 400},     // proportional 32/8
		{16 * mib, 200},    // proportional 32/16
		{31 * mib, 103},    // proportional, just above the floor
		{32 * mib, 100},    // live = headroom: 2·live
		{320 * mib, 100},   // large-heap peers keep GOGC = 100
		{1 << 40, 100},     // no overflow on absurd heaps
	} {
		if got := gcPercent(c.live); got != c.want {
			t.Errorf("gcPercent(%d) = %d, want %d", c.live, got, c.want)
		}
	}
	// The goal the percentage yields — the larger of the proportional goal
	// and the percentage-scaled minimum — is max(2·live, live + headroom),
	// to within rounding, across the whole range.
	for live := uint64(64 << 10); live < 1<<30; live = live*5/4 + 1 {
		p := uint64(gcPercent(live))
		goal := max(live+live*p/100, minHeapAt100*p/100)
		want := max(2*live, live+headroom)
		if goal > want+want/100 || goal+want/100 < want {
			t.Errorf("live %d: GOGC %d gives goal %d, want ≈ %d", live, p, goal, want)
		}
	}
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRegimeRetunesAfterEachCycle: once started, every completed cycle leaves
// GOGC at gcPercent of the live heap that cycle marked — without the test
// ever setting it.
func TestRegimeRetunesAfterEachCycle(t *testing.T) {
	if !StartGCRegime() {
		t.Skip("GOGC or GOMEMLIMIT set in the environment: the regime stays off")
	}
	var keep [][]byte
	for _, extra := range []int{0, 8 << 20, 40 << 20} {
		keep = append(keep, make([]byte, extra))
		runtime.GC()
		live := readMetric("/gc/heap/live:bytes")
		want := uint64(gcPercent(live))
		// The finalizer goroutine retunes asynchronously after the cycle.
		deadline := time.Now().Add(10 * time.Second)
		for readMetric("/gc/gogc:percent") != want {
			if time.Now().After(deadline) {
				t.Fatalf("live %d B: GOGC %d, want %d", live, readMetric("/gc/gogc:percent"), want)
			}
			runtime.Gosched()
		}
	}
	runtime.KeepAlive(keep)
}

// TestOperatorSettingsDisableRegime: GOGC or GOMEMLIMIT in the environment
// leaves the runtime's percentage untouched however many cycles run.
func TestOperatorSettingsDisableRegime(t *testing.T) {
	for _, env := range []struct{ setting, wantPercent string }{
		{"GOGC=50", "50"},
		{"GOMEMLIMIT=1GiB", "100"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestOperatorChild$", "-test.v")
		cmd.Env = append(os.Environ(), "DISTXQ_DAEMON_TEST_CHILD=1", env.setting)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: child failed: %v\n%s", env.setting, err, out)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		found := false
		for sc.Scan() {
			if _, got, ok := strings.Cut(sc.Text(), "gc-percent "); ok {
				found = true
				if got != env.wantPercent {
					t.Errorf("%s: GOGC after cycles %s, want %s", env.setting, got, env.wantPercent)
				}
			}
		}
		if !found {
			t.Fatalf("%s: child printed no gc-percent line:\n%s", env.setting, out)
		}
	}
}

// TestOperatorChild runs only as TestOperatorSettingsDisableRegime's
// subprocess: it starts the regime, collects a few times around a live heap
// the regime would retune for, and prints the percentage in force.
func TestOperatorChild(t *testing.T) {
	if os.Getenv("DISTXQ_DAEMON_TEST_CHILD") == "" {
		t.Skip("subprocess of TestOperatorSettingsDisableRegime")
	}
	if StartGCRegime() {
		t.Fatal("regime started despite an operator setting")
	}
	keep := make([]byte, 2<<20)
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	runtime.KeepAlive(keep)
	t.Log("gc-percent " + strconv.FormatUint(readMetric("/gc/gogc:percent"), 10))
}
