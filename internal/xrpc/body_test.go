package xrpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
	"distxq/internal/xq"
)

const hostileLength = 1 << 30

// allocatedDuring returns the bytes the process allocated while f ran.
func allocatedDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestReadBodyHostileLength: a 1 GiB declaration followed by 10 bytes fails
// with a wrapped io.ErrUnexpectedEOF after allocating what arrived plus the
// upfront cap — on the frame path, the bare body path, both HTTP directions.
func TestReadBodyHostileLength(t *testing.T) {
	const budget = 2 << 20
	cases := []struct {
		name string
		read func() error
	}{
		{"frame", func() error {
			_, err := readFrame(bufio.NewReader(strings.NewReader(strconv.Itoa(hostileLength) + "\n0123456789")))
			return err
		}},
		{"body", func() error {
			_, err := ReadBody(strings.NewReader("0123456789"), hostileLength)
			return err
		}},
		{"http-response", func() error {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", strconv.Itoa(hostileLength))
				_, _ = w.Write([]byte("0123456789"))
			}))
			defer ts.Close()
			tr := &HTTPTransport{Client: ts.Client(), URLFor: func(string) string { return ts.URL }}
			_, err := tr.RoundTrip("p", []byte("<x/>"))
			return err
		}},
		{"http-request", func() error {
			ts := httptest.NewServer(NewHTTPHandler(&Server{}))
			defer ts.Close()
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				return err
			}
			defer conn.Close()
			fmt.Fprintf(conn, "POST /xrpc HTTP/1.1\r\nHost: p\r\nContent-Length: %d\r\n\r\n0123456789", hostileLength)
			_ = conn.(*net.TCPConn).CloseWrite()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				return fmt.Errorf("handler answered %d %q, want 400", resp.StatusCode, body)
			}
			return fmt.Errorf("handler: %s: %w", body, io.ErrUnexpectedEOF)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			if n := allocatedDuring(func() { err = c.read() }); n >= budget {
				t.Errorf("allocated %d bytes for a 10-byte body, want < %d", n, budget)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want a wrapped io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestReadBodyHonestLengthOneAllocation: a truthful declaration is read into
// one exactly sized buffer, framed or not; a larger one grows as data comes.
func TestReadBodyHonestLengthOneAllocation(t *testing.T) {
	msg := bytes.Repeat([]byte("<item>x</item>"), 3000) // ~42 KB, a typical response
	framed := append([]byte(strconv.Itoa(len(msg))+"\n"), msg...)
	r := bytes.NewReader(nil)
	br := bufio.NewReader(r)
	cases := []struct {
		name string
		read func() ([]byte, error)
	}{
		{"body", func() ([]byte, error) { r.Reset(msg); return ReadBody(r, int64(len(msg))) }},
		{"frame", func() ([]byte, error) { r.Reset(framed); br.Reset(r); return readFrame(br) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.read()
			if err != nil || !bytes.Equal(got, msg) || cap(got) != len(msg) {
				t.Fatalf("read %d bytes (cap %d), err %v; want the %d-byte message exactly", len(got), cap(got), err, len(msg))
			}
			if n := testing.AllocsPerRun(50, func() { _, _ = c.read() }); n != 1 {
				t.Errorf("%v allocations per read, want 1", n)
			}
		})
	}

	big := bytes.Repeat([]byte{'x'}, 3*maxUpfront+7)
	got, err := ReadBody(bytes.NewReader(big), int64(len(big)))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("message past the upfront cap: %d bytes, err %v", len(got), err)
	}
	if got, err := ReadBody(strings.NewReader("undeclared"), -1); err != nil || string(got) != "undeclared" {
		t.Fatalf("undeclared length: %q, %v", got, err)
	}
}

// TestHTTPHandlerDeclaresContentLength: every /xrpc reply — response, fault,
// spent-budget fault — carries its length, so none is chunked.
func TestHTTPHandlerDeclaresContentLength(t *testing.T) {
	srv := &Server{Engine: eval.NewEngine(nil)}
	ts := httptest.NewServer(NewHTTPHandler(srv))
	defer ts.Close()
	req := &Request{
		Method: "f", Arity: 0, Semantics: ByValue,
		Module: `declare function f() as item()* { (1, "two") };`,
		Calls:  [][]xdm.Sequence{{}},
	}
	good, err := MarshalRequest(req, nil, nil, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, send := range map[string]func() (*http.Response, error){
		"response": func() (*http.Response, error) {
			return ts.Client().Post(ts.URL, "application/soap+xml", bytes.NewReader(good))
		},
		"fault": func() (*http.Response, error) {
			return ts.Client().Post(ts.URL, "application/soap+xml", strings.NewReader("<garbage"))
		},
		"budget": func() (*http.Response, error) {
			r, _ := http.NewRequest(http.MethodPost, ts.URL, bytes.NewReader(good))
			r.Header.Set(BudgetHeader, "0")
			return ts.Client().Do(r)
		},
	} {
		resp, err := send()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte reply", name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		_, perr := ParseResponse(body)
		if (perr == nil) != (name == "response") {
			t.Errorf("%s: parse error %v", name, perr)
		}
	}
}

// TestRetainModulesKeepsRequestBytes: a retained module makes the same
// request bytes the per-call rendering does; calls that cannot ship (a nested
// remote call) or have no stable name retain nothing.
func TestRetainModulesKeepsRequestBytes(t *testing.T) {
	q, err := xq.ParseQuery(`declare function f($x as xs:integer) as item()* { $x + 1 };
for $i in (1, 2) return execute at {"a"} { f($i) }`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xq.Normalize(q); err != nil {
		t.Fatal(err)
	}
	var x *xq.XRPCExpr
	xq.Walk(q.Body, func(e xq.Expr) bool {
		if v, ok := e.(*xq.XRPCExpr); ok {
			x = v
		}
		return x == nil
	})
	cl := &Client{Semantics: ByValue, Static: eval.DefaultStatic()}
	calls := [][]xdm.Sequence{{{xdm.NewInteger(1)}}, {{xdm.NewInteger(2)}}}
	before, _, err := cl.marshalCall(context.Background(), "a", x, calls, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	RetainModules(q)
	if x.RetainedModule() == nil {
		t.Fatal("RetainModules left the call without a module")
	}
	after, _, err := cl.marshalCall(context.Background(), "a", x, calls, trace.SpanRef{})
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("retained module changed the request (err %v):\n%s\nvs\n%s", err, before, after)
	}

	nested := &xq.XRPCExpr{FuncName: "outer", Body: &xq.XRPCExpr{FuncName: "inner", Body: &xq.Literal{Val: xdm.NewInteger(1)}}}
	unnamed := &xq.XRPCExpr{Body: &xq.Literal{Val: xdm.NewInteger(1)}}
	RetainModules(&xq.Query{Body: &xq.SeqExpr{Items: []xq.Expr{nested, unnamed}}})
	if nested.RetainedModule() != nil || nested.Body.(*xq.XRPCExpr).RetainedModule() != nil || unnamed.RetainedModule() != nil {
		t.Error("a nested-remote or unnamed call retained a module")
	}
	if _, _, err := cl.marshalCall(context.Background(), "a", nested, calls, trace.SpanRef{}); !errors.Is(err, errNestedRemote) {
		t.Errorf("nested remote body: err %v, want the nested execute-at refusal", err)
	}
}
