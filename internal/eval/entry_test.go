package eval

import (
	"errors"
	"time"

	"distxq/internal/xdm"
	"distxq/internal/xq"
)

// Entry points only the eval tests use. The tests of other packages reach
// the same through internal/testkit, which eval's own tests cannot import:
// testkit imports eval.

// lazySeq is a result handed over item by item: calling it runs the
// evaluation, gives yield each item in order, and stops the evaluation when
// yield returns false, returning nil. An evaluation fault ends it after the
// items before it.
type lazySeq func(yield func(xdm.Item) bool) error

// errStop is the emit error through which a lazySeq's consumer stops the
// evaluation early.
var errStop = errors.New("eval: consumer stopped")

// pull adapts an emitting evaluation to a lazySeq.
func pull(run func(emit func(xdm.Sequence) error) error) lazySeq {
	return func(yield func(xdm.Item) bool) error {
		err := run(func(s xdm.Sequence) error {
			for _, it := range s {
				if !yield(it) {
					return errStop
				}
			}
			return nil
		})
		if err == errStop {
			return nil
		}
		return err
	}
}

// QuerySeq normalizes a parsed query and returns its result as a lazySeq:
// the main body lowered here by compileTop, as a function body returning
// item()* is, over the functions of the Program a call runs. Nothing is
// evaluated until the sequence is pulled.
func (e *Engine) QuerySeq(q *xq.Query) (lazySeq, error) {
	if err := xq.Normalize(q); err != nil {
		return nil, err
	}
	p := e.program(q)
	fc := &fnCompiler{cp: &compiler{funcs: p.funcs}}
	_, body := fc.compileTop(q.Body, nil)
	ctx := e.newContext()
	if err := p.bind(ctx, e.Holes); err != nil {
		return nil, err
	}
	return pull(func(emit func(xdm.Sequence) error) error {
		return body(newFrame(ctx, fc.nslots, fc.nitems, nil), emit)
	}), nil
}

// evalFunctionSeq is EvalFunctionEmit as a lazySeq: the call runs when the
// sequence is pulled.
func (e *Engine) evalFunctionSeq(q *xq.Query, name string, args []xdm.Sequence, static *StaticContext, deadline time.Time, holes ...xdm.Atomic) (lazySeq, error) {
	return pull(func(emit func(xdm.Sequence) error) error {
		return e.EvalFunctionEmit(q, name, args, static, deadline, emit, holes...)
	}), nil
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
func drain(s lazySeq) (xdm.Sequence, error) {
	var out xdm.Sequence
	if err := s(func(it xdm.Item) bool {
		out = append(out, it)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}
