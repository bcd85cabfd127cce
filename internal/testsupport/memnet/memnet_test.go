package memnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
)

// A streamed body reaches the client row by row: each row is readable while
// the handler is still blocked before writing the next one.
func TestStreamArrivesRowByRow(t *testing.T) {
	n := New()
	defer n.Close()
	next := make(chan struct{})
	returned := make(chan struct{})
	url := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "{\"row\":%d}\n", i)
			w.(http.Flusher).Flush()
			<-next
		}
	}))

	resp, err := n.Client().Get(url + "/stream?x=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	rows := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		line, err := rows.ReadString('\n')
		if want := fmt.Sprintf("{\"row\":%d}\n", i); err != nil || line != want {
			t.Fatalf("row %d = %q (%v), want %q", i, line, err, want)
		}
		select {
		case <-returned:
			t.Fatalf("row %d arrived only after the handler returned", i)
		default:
		}
		next <- struct{}{}
	}
	if rest, err := io.ReadAll(rows); err != nil || len(rest) != 0 {
		t.Fatalf("after the last row: %q, %v; want a clean end", rest, err)
	}
	<-returned
}

// The handler's context ends when the client hangs up: by closing the body
// once the header has come, or by cancelling its request before that.
func TestClientHangUpCancelsHandler(t *testing.T) {
	n := New()
	defer n.Close()
	entered := make(chan struct{}, 1)
	ended := make(chan error, 1)
	url := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		if r.URL.Query().Get("answer") == "1" {
			w.WriteHeader(http.StatusOK)
		}
		<-r.Context().Done()
		ended <- r.Context().Err()
	}))

	resp, err := n.Client().Get(url + "/?answer=1")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	resp.Body.Close()
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("after the body was closed the handler's context says %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := n.Client().Do(req)
		got <- err
	}()
	<-entered
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled request returned %v, want context.Canceled", err)
	}
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("after the request was cancelled the handler's context says %v", err)
	}
}

// A host marked down, or one nothing is served at, fails with a transport
// error and never runs a handler; marked up again, it answers.
func TestDownHostRefuses(t *testing.T) {
	n := New()
	defer n.Close()
	var calls atomic.Int64
	url := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	n.SetDown(url, true)
	for _, target := range []string{url + "/readyz", "http://nowhere/readyz"} {
		if resp, err := n.Client().Get(target); err == nil {
			resp.Body.Close()
			t.Fatalf("GET %s answered %d, want a transport error", target, resp.StatusCode)
		}
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("%d handler calls on a down host, want 0", got)
	}
	n.SetDown(url, false)
	resp, err := n.Client().Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls.Load() != 1 {
		t.Fatalf("back up: status %d after %d calls, want 200 after 1", resp.StatusCode, calls.Load())
	}
}

// Close cancels a handler blocked on its context and returns only once that
// handler has exited; the request it was serving fails.
func TestCloseWaitsForHandlers(t *testing.T) {
	n := New()
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	release := make(chan struct{})
	url := n.Serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		close(cancelled)
		<-release // still running after its context ended
	}))
	got := make(chan error, 1)
	go func() {
		_, err := n.Client().Get(url + "/")
		got <- err
	}()

	<-entered
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	<-cancelled
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	default:
	}
	close(release)
	<-closed
	if err := <-got; err == nil {
		t.Fatal("a request cut by Close succeeded")
	}
	if resp, err := n.Client().Get(url + "/"); err == nil {
		resp.Body.Close()
		t.Fatal("a request after Close succeeded")
	}
}
