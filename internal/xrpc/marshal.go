package xrpc

import (
	"fmt"
	"strconv"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

// MarshalRequest serializes a request into a SOAP message. For
// pass-by-projection, paramUsed/paramReturned supply the per-parameter
// relative projection paths applied while serializing, and the request's
// ResultUsed/ResultReturned travel in the projection-paths element for the
// server to apply on the response (Fig. 5).
func MarshalRequest(r *Request, paramUsed, paramReturned []projection.PathSet, opts projection.Options) ([]byte, error) {
	st := &encodeState{
		sem:           r.Semantics,
		paramUsed:     paramUsed,
		paramReturned: paramReturned,
		projOpts:      opts,
	}
	seqs := make([]xdm.Sequence, 0, len(r.Calls)*r.Arity)
	paramOf := make([]int, 0, len(r.Calls)*r.Arity)
	for _, call := range r.Calls {
		if len(call) != r.Arity {
			return nil, fmt.Errorf("xrpc: call has %d parameters, arity is %d", len(call), r.Arity)
		}
		for p, s := range call {
			seqs = append(seqs, s)
			paramOf = append(paramOf, p)
		}
	}
	if err := st.buildFragments(seqs, paramOf); err != nil {
		return nil, err
	}
	st.grow(len(envelopeOpen) + len(r.Method) + len(r.Module) + len(r.Static.BaseURI) +
		len(r.Static.DefaultCollation) + len(r.Static.CurrentDateTime) +
		64*(len(r.ResultUsed)+len(r.ResultReturned)) + 32*len(r.Calls))
	st.str(envelopeOpen + "<" + elBody + "><" + elRequest + ` method="`)
	st.attr(r.Method)
	st.str(`" arity="`)
	st.num(int64(r.Arity))
	st.str(`" semantics="`)
	st.str(r.Semantics.String())
	st.str(`" base-uri="`)
	st.attr(r.Static.BaseURI)
	st.str(`" collation="`)
	st.attr(r.Static.DefaultCollation)
	st.str(`" datetime="`)
	st.attr(r.Static.CurrentDateTime)
	if r.BudgetNS > 0 {
		st.str(`" budget-ns="`)
		st.num(r.BudgetNS)
	}
	if r.TraceID != 0 {
		st.str(`" trace-id="`)
		st.unum(r.TraceID)
		st.str(`" span-id="`)
		st.unum(r.TraceSpan)
	}
	st.str(`"><` + elModule + ">")
	st.text(r.Module)
	st.str("</" + elModule + ">")
	if r.Semantics == ByProjection {
		st.str("<" + elProjPaths + ">")
		for _, p := range r.ResultUsed {
			st.str("<" + elUsedPath + ">")
			st.text(p.String())
			st.str("</" + elUsedPath + ">")
		}
		for _, p := range r.ResultReturned {
			st.str("<" + elRetPath + ">")
			st.text(p.String())
			st.str("</" + elRetPath + ">")
		}
		st.str("</" + elProjPaths + ">")
	}
	st.writeFragments()
	for _, call := range r.Calls {
		st.str("<" + elCall + ">")
		for _, s := range call {
			if err := st.writeSequence(s); err != nil {
				return nil, err
			}
		}
		st.str("</" + elCall + ">")
	}
	st.str("</" + elRequest + "></" + elBody + "></env:Envelope>")
	return st.b, nil
}

// ParseRequest shreds a request message in one pass: fragments become fresh
// documents and parameter sequences resolve into them (preserving node
// identity and order among parameters of the same message, §V).
func ParseRequest(data []byte) (*Request, error) {
	r := &Request{}
	d := new(decoder)
	err := d.shred(data, "request", elRequest, func() error {
		r.Method = d.attr("method", "")
		r.Arity, _ = strconv.Atoi(d.attr("arity", "0"))
		var err error
		if r.Semantics, err = ParseSemantics(d.attr("semantics", "by-value")); err != nil {
			return err
		}
		r.Static = eval.StaticContext{
			BaseURI:          d.attr("base-uri", ""),
			DefaultCollation: d.attr("collation", ""),
			CurrentDateTime:  d.attr("datetime", ""),
		}
		r.BudgetNS, _ = strconv.ParseInt(d.attr("budget-ns", "0"), 10, 64)
		r.TraceID, _ = strconv.ParseUint(d.attr("trace-id", "0"), 10, 64)
		r.TraceSpan, _ = strconv.ParseUint(d.attr("span-id", "0"), 10, 64)
		module, paths := false, false
		err = d.payload("call", func(name string) error {
			switch local := localName(name); {
			case local == "call":
				params, err := d.call(r.Arity)
				r.Calls = append(r.Calls, params)
				return err
			case local == "module" && first(&module):
				r.Module, err = d.sc.StringValue()
				return err
			case local == "projection-paths" && first(&paths):
				return d.children(func(name string) error {
					s, _ := d.sc.StringValue() // an error sticks: Next returns it
					p, err := projection.ParsePath(s)
					switch localName(name) {
					case "used-path":
						r.ResultUsed = r.ResultUsed.Add(p)
					case "returned-path":
						r.ResultReturned = r.ResultReturned.Add(p)
					}
					return err
				})
			}
			return d.sc.Skip()
		})
		if err == nil && len(r.Calls) == 0 {
			err = fmt.Errorf("xrpc: request without calls")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r.frags = d.frags
	return r, nil
}

// call decodes the parameter sequences of the request call just started.
func (d *decoder) call(arity int) ([]xdm.Sequence, error) {
	params := make([]xdm.Sequence, 0, min(max(arity, 0), 64))
	err := d.children(func(name string) error {
		if localName(name) != "sequence" {
			return fmt.Errorf("xrpc: unexpected %s in call", name)
		}
		s, err := d.sequence(name)
		params = append(params, s)
		return err
	})
	if err == nil && len(params) != arity {
		err = fmt.Errorf("xrpc: call carries %d sequences, arity is %d", len(params), arity)
	}
	return params, err
}

// MarshalResponse serializes the results of every call. For
// pass-by-projection, resultUsed/resultReturned are the relative paths from
// the request's projection-paths element, applied to the result sequences
// while building the response fragments.
func MarshalResponse(resp *Response, resultUsed, resultReturned projection.PathSet, opts projection.Options) ([]byte, error) {
	st := resultEncoder(resp.Semantics, resultUsed, resultReturned, opts)
	if err := st.buildFragments(resp.Results, nil); err != nil {
		return nil, err
	}
	spans := encodeSpans(resp.Spans)
	st.grow(len(envelopeOpen) + len(spans) + 32*len(resp.Results))
	st.str(envelopeOpen + "<" + elBody + "><" + elResponse + ` semantics="`)
	st.str(resp.Semantics.String())
	st.str(`" exec-ns="`)
	st.num(resp.ExecNanos)
	st.str(`" serde-ns="`)
	st.num(resp.SerializeNanos)
	st.str(`">`)
	st.traceEl(spans)
	st.writeFragments()
	for _, res := range resp.Results {
		st.str("<" + elCall + ">")
		if err := st.writeSequence(res); err != nil {
			return nil, err
		}
		st.str("</" + elCall + ">")
	}
	st.str("</" + elResponse + "></" + elBody + "></env:Envelope>")
	return st.b, nil
}

// ParseResponse shreds a response message in one pass.
func ParseResponse(data []byte) (*Response, error) { return new(decoder).response(data) }

func (d *decoder) response(data []byte) (*Response, error) {
	resp := &Response{}
	err := d.shred(data, "response", elResponse, func() error {
		var err error
		if resp.Semantics, err = ParseSemantics(d.attr("semantics", "by-value")); err != nil {
			return err
		}
		d.raw = d.raw && resp.Semantics == ByFragment
		resp.ExecNanos, _ = strconv.ParseInt(d.attr("exec-ns", "0"), 10, 64)
		resp.SerializeNanos, _ = strconv.ParseInt(d.attr("serde-ns", "0"), 10, 64)
		traced := false
		return d.payload("call", func(name string) error {
			switch local := localName(name); {
			case local == "call":
				var s xdm.Sequence
				found := false
				err := d.children(func(name string) (err error) {
					if localName(name) == "sequence" && first(&found) {
						s, err = d.sequence(name)
						return err
					}
					return d.sc.Skip()
				})
				if err == nil && !found {
					err = fmt.Errorf("xrpc: response call without sequence")
				}
				resp.Results = append(resp.Results, s)
				return err
			case local == "trace" && first(&traced):
				return d.spans(&resp.Spans)
			}
			return d.sc.Skip()
		})
	})
	if err != nil {
		return nil, err
	}
	resp.frags = d.frags
	return resp, nil
}

// Fault is an XRPC error travelling back as a SOAP fault. Code, when
// non-empty, types the failure class (FaultCodeDeadline, FaultCodeOverloaded)
// so originators can match it with errors.Is instead of parsing messages.
type Fault struct {
	Msg  string
	Code string
	// Spans carries the server-side spans of a traced request that faulted —
	// a lane that fails over mid-stream still contributes its partial server
	// work to the originator's tree.
	Spans []trace.Span
}

func (f *Fault) Error() string {
	if f.Code != "" {
		return "xrpc: remote fault [" + f.Code + "]: " + f.Msg
	}
	return "xrpc: remote fault: " + f.Msg
}

// Is maps the wire-level fault codes back onto the typed sentinels, so a
// deadline or overload failure keeps its identity across the SOAP hop.
func (f *Fault) Is(target error) bool {
	switch f.Code {
	case FaultCodeDeadline:
		return target == ErrDeadlineExceeded
	case FaultCodeOverloaded:
		return target == ErrOverloaded
	}
	return false
}

// MarshalFault renders an error as a SOAP fault message, carrying the typed
// failure class (when the error has one) as an env:Code child.
func MarshalFault(err error) []byte {
	msg, spans := err.Error(), encodeSpans(faultSpans(err))
	w := wireBuf{b: make([]byte, 0, len(envelopeOpen)+len(msg)+len(spans)+192)}
	w.str(envelopeOpen + "<" + elBody + "><env:Fault>")
	if code := faultCode(err); code != "" {
		w.str("<env:Code>")
		w.text(code)
		w.str("</env:Code>")
	}
	w.str("<env:Reason>")
	w.text(msg)
	w.str("</env:Reason>")
	w.traceEl(spans)
	w.str("</env:Fault></" + elBody + "></env:Envelope>")
	return w.b
}

// encodeSpans renders piggybacked spans in their wire form, nil when there
// are none or they do not encode: dropping spans never fails a message.
func encodeSpans(spans []trace.Span) []byte {
	if len(spans) == 0 {
		return nil
	}
	data, err := trace.EncodeSpans(spans)
	if err != nil {
		return nil
	}
	return data
}

// traceEl emits the piggybacked-span element when spans are present;
// untraced messages stay byte-identical to the pre-trace wire form.
func (w *wireBuf) traceEl(spans []byte) {
	if len(spans) == 0 {
		return
	}
	w.str("<" + elTrace + ">")
	w.text(string(spans))
	w.str("</" + elTrace + ">")
}
