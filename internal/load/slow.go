package load

// Straggler injection for load runs: SlowPeer wraps a peer's in-memory
// endpoint with a fixed service delay, the overload runs' way of making a
// federation slower than its offered load.

import (
	"time"

	"distxq/internal/peer"
	"distxq/internal/xrpc"
)

// slowHandler delays a peer's in-memory endpoint by a fixed service time,
// for both gathered and streamed exchanges.
type slowHandler struct {
	inner xrpc.Handler
	delay time.Duration
}

func (s *slowHandler) Handle(request []byte) ([]byte, error) {
	time.Sleep(s.delay)
	return s.inner.Handle(request)
}

func (s *slowHandler) HandleStream(request []byte, emit func([]byte) error) error {
	time.Sleep(s.delay)
	if sh, ok := s.inner.(xrpc.StreamHandler); ok {
		return sh.HandleStream(request, emit)
	}
	resp, err := s.inner.Handle(request)
	if err != nil {
		return err
	}
	return emit(resp)
}

// SlowPeer injects a straggler: the named in-process peer's endpoint gains
// a fixed service delay on every exchange. The returned restore removes it.
func SlowPeer(net *peer.Network, name string, delay time.Duration) (restore func()) {
	p, ok := net.Peer(name)
	if !ok {
		return func() {}
	}
	net.Transport.Register(name, &slowHandler{inner: p.Server, delay: delay})
	return func() { net.Transport.Register(name, p.Server) }
}
