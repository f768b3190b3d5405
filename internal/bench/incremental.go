package bench

import (
	"fmt"
	"io"

	"distxq/internal/core"
	"distxq/internal/peer"
	"distxq/internal/projection"
	"distxq/internal/xdm"
	"distxq/internal/xmark"
	"distxq/internal/xrpc"
)

// IncRow is one measurement of the incremental-evaluation experiment: a
// single streamed call whose result is one peer's whole filtered person set
// (the single-huge-call workload), with the server either materializing the
// call before cutting frames (eager, the pre-incremental behavior) or
// pulling frames out of the live evaluation (incremental).
type IncRow struct {
	DocBytes int64
	Items    int64 // result items of the single call
	Chunks   int64 // chunk frames of the incremental run
	// First usable result at the originator under the netsim pipeline
	// model. Eager servers charge the whole call's evaluation to the first
	// frame; incremental servers only the production of its items.
	EagerFirstNS int64
	IncFirstNS   int64
	FirstSpeedup float64
	// Server evaluation charged to the first frame (measured, the lane's
	// first chunk's exec-ns): what streaming changes. The modelled times
	// above add netsim's round trip to it on both sides.
	EagerFirstExecNS int64
	IncFirstExecNS   int64
	// Server-side peak buffered result items: whole call vs one frame.
	EagerPeakItems int64
	IncPeakItems   int64
	// ResultsEqual: both modes serialize byte-identically at the originator.
	ResultsEqual bool
}

// eagerStreamer is the figure's materialize-then-frame baseline, built from
// the peer's exported pieces: Handle evaluates and marshals the whole
// response, which is then re-cut into chunk frames — so every frame waits for
// the whole call and the server buffers all of it.
type eagerStreamer struct{ *xrpc.Server }

func (e eagerStreamer) HandleStream(request []byte, emit func([]byte) error) error {
	data, err := e.Handle(request)
	if err != nil {
		return err
	}
	resp, err := xrpc.ParseResponse(data)
	if err != nil {
		return err
	}
	// Handle already projected the results; re-frame them whole.
	whole := projection.PathSet{}.Add(projection.Path{})
	return xrpc.MarshalResponseStream(resp, e.ChunkItems, nil, whole, e.ProjOpts, emit)
}

// FigIncremental measures the incremental-evaluation experiment across
// document sizes.
func FigIncremental(sizes []int64) ([]IncRow, error) {
	var out []IncRow
	for _, size := range sizes {
		row, err := incrementalRow(size)
		if err != nil {
			return nil, fmt.Errorf("incremental @%d: %w", size, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func incrementalRow(size int64) (IncRow, error) {
	cfg := xmark.ForSize(size * 2) // people doc is half a fixture
	query := xmark.ScatterQuery([]string{"peer1"})

	run := func(eager bool) (xdm.Sequence, *peer.Report, int64, int64, error) {
		n := peer.NewNetwork()
		p := n.AddPeer("peer1")
		p.AddDoc("xmk.xml", xmark.PeopleDocument(cfg, "xrpc://peer1/xmk.xml"))
		if eager {
			n.Transport.Register("peer1", eagerStreamer{p.Server})
		}
		p.Server.Metrics = &xrpc.Metrics{}
		local := n.AddPeer("local")
		sess := n.NewSession(local, core.ByFragment)
		sess.Streamed = true
		res, rep, err := sess.Query(query)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		peak := p.Server.Metrics.Snapshot().PeakBufferedItems
		return res, rep, peak, p.DocSize("xmk.xml"), err
	}

	var row IncRow
	var eagerSer, incSer string
	for rep := 0; rep < StreamReps; rep++ {
		eRes, eRep, ePeak, docBytes, err := run(true)
		if err != nil {
			return row, fmt.Errorf("eager: %w", err)
		}
		iRes, iRep, iPeak, _, err := run(false)
		if err != nil {
			return row, fmt.Errorf("incremental: %w", err)
		}
		if rep == 0 {
			eagerSer, incSer = xdm.SequenceString(eRes), xdm.SequenceString(iRes)
			row = IncRow{
				DocBytes:       docBytes,
				Items:          int64(len(iRes)),
				Chunks:         iRep.StreamedChunks,
				EagerPeakItems: ePeak,
				IncPeakItems:   iPeak,
				ResultsEqual:   eagerSer == incSer,
			}
		}
		// Minimum per mode: the netsim model consumes single-shot wall
		// measurements, same de-noising as FigStream.
		if rep == 0 || eRep.FirstResultNS < row.EagerFirstNS {
			row.EagerFirstNS = eRep.FirstResultNS
		}
		if rep == 0 || iRep.FirstResultNS < row.IncFirstNS {
			row.IncFirstNS = iRep.FirstResultNS
		}
		if rep == 0 || eRep.FirstChunkExecNS < row.EagerFirstExecNS {
			row.EagerFirstExecNS = eRep.FirstChunkExecNS
		}
		if rep == 0 || iRep.FirstChunkExecNS < row.IncFirstExecNS {
			row.IncFirstExecNS = iRep.FirstChunkExecNS
		}
	}
	if row.IncFirstNS > 0 {
		row.FirstSpeedup = float64(row.EagerFirstNS) / float64(row.IncFirstNS)
	}
	return row, nil
}

// PrintFigIncremental renders the incremental-evaluation table.
func PrintFigIncremental(w io.Writer, rows []IncRow) {
	fmt.Fprintf(w, "Incremental evaluation — one peer, one huge streamed call: eager (materialize-then-frame) vs incremental (pull-based)\n")
	fmt.Fprintf(w, "%10s %7s %7s %13s %13s %8s %11s %11s %6s\n",
		"doc", "items", "chunks", "first/eager", "first/incr", "speedup",
		"peak/eager", "peak/incr", "equal")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s %7d %7d %13s %13s %7.2fx %11d %11d %6v\n",
			fmtBytes(r.DocBytes), r.Items, r.Chunks,
			fmtNS(r.EagerFirstNS), fmtNS(r.IncFirstNS), r.FirstSpeedup,
			r.EagerPeakItems, r.IncPeakItems, r.ResultsEqual)
	}
}
