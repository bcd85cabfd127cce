// Package memnet is an in-memory HTTP network for tests: an
// http.RoundTripper that hands each request to the http.Handler served at
// its base URL, in a goroutine of its own, with no socket, no listener and
// no timer.
//
// A response returns to the client at the handler's first WriteHeader,
// Write or Flush, and its body streams through an io.Pipe, so a streamed
// (NDJSON) response arrives row by row as the handler writes it. The
// handler's request context ends when the client's request context ends,
// when the client closes the body, or when the network is closed. A host
// marked down, or a URL no handler is served at, fails with a transport
// error and calls no handler. Faults — a 503 with Retry-After, a 500, a
// handler that hangs until cancelled — are plain handlers.
//
// Close cancels every handler still running and waits for each handler
// goroutine the network started, so a test that closes its network at
// teardown cannot leak one.
package memnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
)

// The causes a handler's context carries once the network has been closed,
// and once the handler has returned.
var (
	errClosed   = errors.New("memnet: network closed")
	errReturned = errors.New("memnet: handler returned")
)

// Network maps base URLs to handlers. Use it as an http.Client's Transport.
// It is safe for concurrent use.
type Network struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	hosts  map[string]*host
	closed bool
}

type host struct {
	h    http.Handler
	down bool
}

// New returns an empty network.
func New() *Network {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Network{ctx: ctx, cancel: cancel, hosts: map[string]*host{}}
}

// Serve serves h on a new host and returns its base URL.
func (n *Network) Serve(h http.Handler) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	base := fmt.Sprintf("http://host%d", len(n.hosts)+1)
	n.hosts[base] = &host{h: h}
	return base
}

// SetDown marks the host at base down (every request to it fails with a
// transport error) or up again. Requests already in its handler run on.
func (n *Network) SetDown(base string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h := n.hosts[base]; h != nil {
		h.down = down
	}
}

// Client returns an http.Client over the network.
func (n *Network) Client() *http.Client { return &http.Client{Transport: n} }

// Close cancels every handler still running and returns once each handler
// goroutine the network started has exited. Later requests fail.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.cancel(errClosed)
	n.wg.Wait()
}

// RoundTrip runs the handler served at req's base URL and returns its
// response once the handler has written its header.
func (n *Network) RoundTrip(req *http.Request) (*http.Response, error) {
	base := req.URL.Scheme + "://" + req.URL.Host
	n.mu.Lock()
	h := n.hosts[base]
	if n.closed || h == nil || h.down {
		n.mu.Unlock()
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("memnet: dial %s: connection refused", base)
	}
	n.wg.Add(1)
	n.mu.Unlock()

	hctx, cancel := context.WithCancelCause(n.ctx)
	stop := context.AfterFunc(req.Context(), func() { cancel(req.Context().Err()) })
	sreq := req.Clone(hctx)
	sreq.URL = &url.URL{Path: req.URL.Path, RawPath: req.URL.RawPath, RawQuery: req.URL.RawQuery}
	sreq.RequestURI = req.URL.RequestURI()
	sreq.Host = req.URL.Host
	sreq.RemoteAddr = "memnet"
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}

	pr, pw := io.Pipe()
	w := &responseWriter{header: http.Header{}, pw: pw, ready: make(chan struct{})}
	w.resp = http.Response{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		ContentLength: -1,
		Body:          &body{PipeReader: pr, cancel: cancel},
		Request:       req,
	}
	// A handler whose client has gone writes into a closed pipe, as it
	// would into a closed connection. Once the handler has returned, the
	// writer is already closed and this is a no-op.
	context.AfterFunc(hctx, func() { pw.CloseWithError(context.Cause(hctx)) })

	go func() {
		defer n.wg.Done()
		defer stop()
		defer sreq.Body.Close()
		h.h.ServeHTTP(w, sreq)
		w.WriteHeader(http.StatusOK) // a no-op if the handler wrote one
		pw.Close()
		cancel(errReturned)
	}()

	select {
	case <-w.ready:
	case <-hctx.Done():
		// A client that gave up before the header came gets its own error,
		// whatever the handler does next.
		if err := context.Cause(hctx); err != errReturned {
			return nil, err
		}
	}
	return &w.resp, nil
}

// responseWriter is the handler's side of one exchange. Its methods are
// called from the handler goroutine only.
type responseWriter struct {
	header http.Header
	pw     *io.PipeWriter
	resp   http.Response
	ready  chan struct{} // closed once resp's status and header are set
	wrote  bool
}

func (w *responseWriter) Header() http.Header { return w.header }

// WriteHeader hands the client its response: the status and a snapshot of
// the header, as a server sends them on the wire.
func (w *responseWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.resp.Status = fmt.Sprintf("%d %s", code, http.StatusText(code))
	w.resp.StatusCode = code
	w.resp.Header = w.header.Clone()
	close(w.ready)
}

// Write blocks until the client has read p, or fails once the client has
// gone. Unlike net/http it does not sniff a missing Content-Type.
func (w *responseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// Flush sends the header if it has not gone yet; the body is never
// buffered.
func (w *responseWriter) Flush() { w.WriteHeader(http.StatusOK) }

// body is the client's side of a response body. Closing it ends the
// handler's request context, as hanging up a connection does.
type body struct {
	*io.PipeReader
	cancel context.CancelCauseFunc
}

func (b *body) Close() error {
	b.PipeReader.Close()
	b.cancel(context.Canceled)
	return nil
}
