package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env locates what the daemon workload needs on disk: the directory holding
// the xqd and xqpeer binaries (run.sh builds them beside the benchmark) and
// a scratch root inside the checkout, and where trace files go.
type env struct {
	BinDir, TmpDir, ResultsDir string
}

// daemon is one spawned xqd or xqpeer.
type daemon struct {
	name string // "xqd" or the peer name
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
}

// fleet is the http_scatter instance: one xqd in front of one xqpeer per
// data peer, all on loopback, shard files in a private temp dir.
type fleet struct {
	fix     *fixture
	dir     string
	xqd     *daemon
	peers   []*daemon
	client  *http.Client
	replied atomic.Int64 // reply bytes read by the clients
}

// live tracks running fleets so that every exit path — normal return, a
// failed run, SIGINT/SIGTERM — can stop their processes and remove their
// temp dirs. A panic on a goroutine other than main's skips deferred
// cleanup, so the daemons are additionally started with Pdeathsig.
var live struct {
	sync.Mutex
	fleets map[*fleet]bool
}

func closeLiveFleets() {
	live.Lock()
	var all []*fleet
	for f := range live.fleets {
		all = append(all, f)
	}
	live.Unlock()
	for _, f := range all {
		f.close()
	}
}

// freeAddr asks the kernel for an unused loopback port. The daemons take
// only a -listen address and do not report the port they bound, so the port
// is reserved here and handed over; the window between Close and the
// daemon's bind is the usual price of that.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (f *fleet) spawn(e env, bin, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, base: "http://" + addr}
	d.cmd = exec.Command(filepath.Join(e.BinDir, bin), append([]string{"-listen", addr, "-pprof"}, args...)...)
	d.cmd.Stderr = os.Stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s (run the benchmark through benchmark/run.sh, which builds the daemons): %w", bin, err)
	}
	return d, nil
}

// ready waits until the daemon accepts connections; xqpeer binds only after
// it has parsed its documents, so this covers loading.
func (d *daemon) ready() error {
	addr := strings.TrimPrefix(d.base, "http://")
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not come up on %s: %w", d.name, addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func setupFleet(w *workload, fix *fixture, e env) (_ *fleet, err error) {
	if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.TmpDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{fix: fix, dir: dir, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}}
	live.Lock()
	if live.fleets == nil {
		live.fleets = map[*fleet]bool{}
	}
	live.fleets[f] = true
	live.Unlock()
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	xqdArgs := []string{"-strategy", w.Strategy.String()}
	for _, doc := range fix.Docs {
		path := filepath.Join(dir, doc.Peer+"-"+doc.Path)
		if err := os.WriteFile(path, []byte(doc.XML), 0o644); err != nil {
			return nil, err
		}
		d, err := f.spawn(e, "xqpeer", doc.Peer, "-name", doc.Peer, "-doc", doc.Path+"="+path)
		if err != nil {
			return nil, err
		}
		f.peers = append(f.peers, d)
		xqdArgs = append(xqdArgs, "-peer", doc.Peer+"="+d.base)
	}
	if f.xqd, err = f.spawn(e, "xqd", "xqd", xqdArgs...); err != nil {
		return nil, err
	}
	for _, d := range f.daemons() {
		if err := d.ready(); err != nil {
			return nil, err
		}
	}
	return f, warm(f.do, w)
}

func (f *fleet) daemons() []*daemon {
	if f.xqd == nil {
		return f.peers
	}
	return append([]*daemon{f.xqd}, f.peers...)
}

func (f *fleet) do(i int) error {
	for _, q := range f.fix.Ops[i%len(f.fix.Ops)] {
		resp, err := f.client.Post(f.xqd.base+"/query", "application/xquery", strings.NewReader(q.Src))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("xqd answered %d: %.200s", resp.StatusCode, body)
		}
		got := strings.TrimSuffix(string(body), "\n") // the handler ends the reply with a newline
		f.replied.Add(int64(len(got)))
		if got != q.Want {
			return mismatch(q, got)
		}
	}
	return nil
}

func (f *fleet) get(d *daemon, path string) ([]byte, error) {
	resp, err := f.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s answered %d", d.name, path, resp.StatusCode)
	}
	return body, nil
}

// scan pulls the numeric values of "<prefix><key><sep>value" lines out of a
// text page: the MemStats trailer of pprof's heap profile ("# Mallocs =
// 123") and the Prometheus-style /metrics page ("name 123").
func scan(page []byte, prefix, sep string, keys ...string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, k := range keys {
			if rest, ok := strings.CutPrefix(line, prefix+k+sep); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %q: %w", line, err)
				}
				out[k] = v
			}
		}
	}
	for _, k := range keys {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("no %q line in the page", prefix+k)
		}
	}
	return out, sc.Err()
}

// memStats reads one daemon's runtime.MemStats after a forced GC, from the
// trailer of its -pprof heap profile.
func (f *fleet) memStats(d *daemon) (map[string]float64, error) {
	page, err := f.get(d, "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return nil, err
	}
	return scan(page, "# ", " = ", "Mallocs", "TotalAlloc", "HeapInuse")
}

func (f *fleet) counters() (counters, error) {
	var c counters
	for _, d := range f.daemons() {
		m, err := f.memStats(d)
		if err != nil {
			return c, err
		}
		c.Mallocs += uint64(m["Mallocs"])
		c.AllocBytes += uint64(m["TotalAlloc"])
	}
	page, err := f.get(f.xqd, "/metrics")
	if err != nil {
		return c, err
	}
	const sent, received = "distxq_xrpc_bytes_sent_total", "distxq_xrpc_bytes_received_total"
	m, err := scan(page, "", " ", sent, received)
	if err != nil {
		return c, err
	}
	c.WireBytes = int64(m[sent]+m[received]) + f.replied.Load()
	return c, nil
}

// heapMB is the heap the daemons hold after set-up: Σ HeapInuse after a
// forced GC in each.
func (f *fleet) heapMB() (float64, error) {
	var sum float64
	for _, d := range f.daemons() {
		m, err := f.memStats(d)
		if err != nil {
			return 0, err
		}
		sum += m["HeapInuse"]
	}
	return sum / 1e6, nil
}

// cpuSeconds returns the CPU time (user + system) xqd and the xqpeers have
// consumed so far, from /proc/<pid>/stat.
func (f *fleet) cpuSeconds() (xqd, peers float64, err error) {
	for _, d := range f.daemons() {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line, in clock ticks (100/s on Linux).
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) < 13 {
			return 0, 0, fmt.Errorf("short /proc stat line for %s", d.name)
		}
		utime, _ := strconv.ParseFloat(fields[11], 64)
		stime, _ := strconv.ParseFloat(fields[12], 64)
		if d == f.xqd {
			xqd += (utime + stime) / 100
		} else {
			peers += (utime + stime) / 100
		}
	}
	return xqd, peers, nil
}

func (f *fleet) close() {
	live.Lock()
	known := live.fleets[f]
	delete(live.fleets, f)
	live.Unlock()
	if !known {
		return
	}
	f.client.CloseIdleConnections()
	for _, d := range f.daemons() {
		_ = d.cmd.Process.Kill() // already exited is fine
	}
	for _, d := range f.daemons() {
		_ = d.cmd.Wait() // reaps; the kill makes a non-zero status expected
	}
	_ = os.RemoveAll(f.dir)
}
