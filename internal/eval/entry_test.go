package eval

import (
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Entry points only the eval tests use. The tests of other packages reach
// the same through internal/testkit, which eval's own tests cannot import:
// testkit imports eval.

// QuerySeq normalizes a parsed query and returns its result as a lazy
// sequence, through the push form of its Program. Nothing is evaluated until
// the sequence is pulled.
func (e *Engine) QuerySeq(q *xq.Query) (xdm.Seq, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	return e.program(q, true).runSeq(e.newContext()), nil
}

// runSeq returns the program body as a lazy sequence; the frame is created at
// first pull, matching the nothing-runs-until-pulled contract of QuerySeq.
func (p *Program) runSeq(ctx *context) xdm.Seq {
	return func(yield func(xdm.Item) bool) error {
		return halted(p.bodySeq(newFrame(ctx, p.nslots, p.nitems, nil), yield))
	}
}

// EvalFunction evaluates a declared function with the given arguments,
// without a static override or a deadline.
func (e *Engine) EvalFunction(q *xq.Query, name string, args []xdm.Sequence) (xdm.Sequence, error) {
	return e.EvalFunctionDeadline(q, name, args, nil, time.Time{})
}

// queryString parses, normalizes and evaluates query source text.
func queryString(e *Engine, src string) (xdm.Sequence, error) {
	q, err := xq.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.Query(q)
}

// drain pulls a lazy sequence into a slice. On error the items produced
// before the failure are discarded and only the error is returned, matching
// the eager evaluator's all-or-nothing result contract.
func drain(s xdm.Seq) (xdm.Sequence, error) {
	var out xdm.Sequence
	if err := s(func(it xdm.Item) bool {
		out = append(out, it)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}
