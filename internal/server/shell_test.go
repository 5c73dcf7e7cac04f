package server

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeGracefulShutdown is the shutdown contract of both commands:
// when the context is cancelled, an in-flight request still completes
// with its full response, cleanup (the router's health-loop stop) runs
// only after it, serve returns nil (clean shutdown), and the listener is
// closed to new connections.
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
	cleaned := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serve(ctx, ln, mux, func() { close(cleaned) })
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
	select {
	case <-cleaned:
		t.Fatal("cleanup ran while a request was still in flight")
	default:
	}
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
	select {
	case <-cleaned:
	default:
		t.Fatal("serve returned without running cleanup")
	}

	// Listener must be closed: a fresh dial gets refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting connections after shutdown")
	}
}

// TestServeListenerError checks serve surfaces a listener failure (the
// pre-shutdown error path) and still runs cleanup.
func TestServeListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln.Close() // Serve on a closed listener fails immediately.

	cleaned := false
	err = serve(context.Background(), ln, http.NewServeMux(), func() { cleaned = true })
	if err == nil {
		t.Fatal("serve on closed listener returned nil error")
	}
	if !cleaned {
		t.Error("serve returned a listener error without running cleanup")
	}
}

// TestObsOptionsFlags covers the -access-log / slow-threshold flag →
// ObsOptions translation both commands use, including the
// slow-log-without-access-log stderr fallback.
func TestObsOptionsFlags(t *testing.T) {
	o, closer, err := LogOptions("", 0)
	if err != nil || closer != nil {
		t.Fatalf("default flags: err=%v closer=%v", err, closer)
	}
	if o != (ObsOptions{}) {
		t.Fatalf("default flags produced non-zero options: %+v", o)
	}

	o, closer, err = LogOptions("-", 250)
	if err != nil || closer != nil {
		t.Fatalf("stderr flags: err=%v closer=%v", err, closer)
	}
	if o.AccessLog == nil || o.SlowThreshold != 250*time.Millisecond {
		t.Fatalf("stderr flags mis-translated: %+v", o)
	}

	// Slow threshold without an access log must still get a sink.
	o, _, err = LogOptions("", 100)
	if err != nil {
		t.Fatalf("slow-only flags: %v", err)
	}
	if o.SlowLog == nil {
		t.Fatal("slow-query logging without access log got no destination")
	}

	// File destination opens (and is returned for closing).
	path := t.TempDir() + "/access.log"
	o, closer, err = LogOptions(path, 0)
	if err != nil {
		t.Fatalf("file flags: %v", err)
	}
	if o.AccessLog == nil || closer == nil {
		t.Fatal("file access log not opened")
	}
	closer.Close()

	if _, _, err := LogOptions(t.TempDir()+"/missing/access.log", 0); err == nil {
		t.Fatal("an access log in a missing directory opened")
	}
}

// TestListenBanner runs the shell under each command's name on -addr
// :0: the banner carries the kernel-assigned port (spawning harnesses
// parse it from stderr), the handler answers there, and cancelling
// ends Run cleanly with cleanup run and the shutdown logged.
func TestListenBanner(t *testing.T) {
	var logs syncBuffer
	flags, out := log.Flags(), log.Writer()
	log.SetFlags(0)
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetFlags(flags); log.SetOutput(out) })

	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "pong") })
	for _, name := range []string{"afqserver", "afqrouter"} {
		marker := name + ": listening on "
		ctx, cancel := context.WithCancel(context.Background())
		cleaned := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- Run(ctx, name, "127.0.0.1:0", mux, func() { close(cleaned) }) }()

		var addr string
		for deadline := time.Now().Add(5 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			for _, line := range strings.Split(logs.String(), "\n") {
				if rest, ok := strings.CutPrefix(line, marker); ok {
					addr = rest
				}
			}
		}
		if addr == "" || strings.HasSuffix(addr, ":0") {
			cancel()
			t.Fatalf("%s: no banner with a concrete port in %q", name, logs.String())
		}
		resp, err := http.Get("http://" + addr + "/ping")
		if err != nil {
			cancel()
			t.Fatalf("%s: the bannered address does not serve: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "pong" {
			t.Errorf("%s: /ping = %q", name, body)
		}

		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: Run = %v, want nil on a clean shutdown", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Run did not return after cancel", name)
		}
		select {
		case <-cleaned:
		default:
			t.Errorf("%s: Run returned without running cleanup", name)
		}
		if !strings.Contains(logs.String(), name+": shut down cleanly") {
			t.Errorf("%s: shutdown not logged: %q", name, logs.String())
		}
	}
}
