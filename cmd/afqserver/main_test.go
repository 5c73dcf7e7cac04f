package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeGracefulShutdown is the shutdown contract of the command:
// when the context is cancelled, an in-flight request still completes
// with its full response, serve returns nil (clean shutdown), and the
// listener is closed to new connections.
func TestServeGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/block", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "done")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serve(ctx, newHTTPServer(mux), ln)
	}()

	// Issue a request that blocks inside the handler.
	type resp struct {
		status int
		body   string
		err    error
	}
	respc := make(chan resp, 1)
	go func() {
		r, err := http.Get("http://" + addr + "/block")
		if err != nil {
			respc <- resp{err: err}
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		respc <- resp{status: r.StatusCode, body: string(b)}
	}()

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	// Request in flight: trigger shutdown, then let the handler finish.
	cancel()
	time.Sleep(20 * time.Millisecond) // let Shutdown close the listener
	close(release)

	select {
	case rr := <-respc:
		if rr.err != nil {
			t.Fatalf("in-flight request failed during shutdown: %v", rr.err)
		}
		if rr.status != http.StatusOK || rr.body != "done" {
			t.Fatalf("in-flight request got status=%d body=%q, want 200 %q", rr.status, rr.body, "done")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}

	// Listener must be closed: a fresh dial gets refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting connections after shutdown")
	}
}

// TestServeListenerError checks serve surfaces a listener failure (the
// pre-shutdown error path).
func TestServeListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln.Close() // Serve on a closed listener fails immediately.

	err = serve(context.Background(), newHTTPServer(http.NewServeMux()), ln)
	if err == nil {
		t.Fatal("serve on closed listener returned nil error")
	}
}

// TestObsOptionsFlags covers the flag → ObsOptions translation,
// including the slow-log-without-access-log stderr fallback.
func TestObsOptionsFlags(t *testing.T) {
	o, closer, err := obsOptions("", 0, false)
	if err != nil || closer != nil {
		t.Fatalf("default flags: err=%v closer=%v", err, closer)
	}
	if o.AccessLog != nil || o.SlowLog != nil || o.SlowThreshold != 0 || o.Pprof {
		t.Fatalf("default flags produced non-zero options: %+v", o)
	}

	o, closer, err = obsOptions("-", 250, true)
	if err != nil || closer != nil {
		t.Fatalf("stderr flags: err=%v closer=%v", err, closer)
	}
	if o.AccessLog == nil || o.SlowThreshold != 250*time.Millisecond || !o.Pprof {
		t.Fatalf("stderr flags mis-translated: %+v", o)
	}

	// Slow threshold without an access log must still get a sink.
	o, _, err = obsOptions("", 100, false)
	if err != nil {
		t.Fatalf("slow-only flags: %v", err)
	}
	if o.SlowLog == nil {
		t.Fatal("slow-query logging without access log got no destination")
	}

	// File destination opens (and is returned for closing).
	path := t.TempDir() + "/access.log"
	o, closer, err = obsOptions(path, 0, false)
	if err != nil {
		t.Fatalf("file flags: %v", err)
	}
	if o.AccessLog == nil || closer == nil {
		t.Fatal("file access log not opened")
	}
	closer.Close()
}

// TestListenBanner pins the machine-greppable startup line: spawning
// harnesses pass -addr :0 and parse this exact prefix from stderr to
// learn the kernel-assigned port.
func TestListenBanner(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	got := listenBanner(ln.Addr())
	want := "afqserver: listening on " + ln.Addr().String()
	if got != want {
		t.Errorf("banner = %q, want %q", got, want)
	}
	if ln.Addr().(*net.TCPAddr).Port == 0 {
		t.Error("ephemeral listen did not resolve to a concrete port")
	}
}
