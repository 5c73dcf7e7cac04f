// shell.go is the process shell afqserver and afqrouter share: the
// listen banner, the http.Server timeouts, the graceful drain on
// SIGINT/SIGTERM and the parsing of the access-log destination. Each
// command keeps only its flags and the handler it serves.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenBanner is the machine-greppable startup line of the command
// called name, announcing its EFFECTIVE listen address. With -addr :0
// the kernel picks a free port, so a spawning harness (test, CI script,
// afqbench) cannot know the address up front: it parses this line from
// stderr.
func ListenBanner(name string, addr net.Addr) string {
	return name + ": listening on " + addr.String()
}

// Run listens on addr, logs name's listen banner and serves h until ctx
// is cancelled or the process gets SIGINT or SIGTERM; then it drains
// (serve) and logs the clean shutdown. cleanup, when non-nil, runs after
// the last request. It returns the listen or serve error, nil on a clean
// shutdown.
func Run(ctx context.Context, name, addr string, h http.Handler, cleanup func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Println(ListenBanner(name, ln.Addr()))
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, h, cleanup); err != nil {
		return err
	}
	log.Printf("%s: shut down cleanly", name)
	return nil
}

// serve runs h on ln until ctx is cancelled, then shuts down gracefully:
// the listener closes immediately, in-flight requests get up to 10 s to
// finish, and cleanup (when non-nil) runs after the last one. The server
// has header-read and idle timeouts so slow-loris clients and dead
// keep-alive connections cannot pin resources forever, and no write
// timeout: large-k queries on big corpora legitimately stream for a
// while. Returns nil on a clean shutdown.
func serve(ctx context.Context, ln net.Listener, h http.Handler, cleanup func()) error {
	if cleanup != nil {
		defer cleanup()
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// LogOptions translates a command's -access-log destination ("" off,
// "-" stderr, anything else a file path opened for append) and its slow
// threshold in milliseconds into the log fields of ObsOptions. Slow
// logging without an access log still needs somewhere to write, so it
// goes to stderr. The returned closer is non-nil when the access log
// went to a file.
func LogOptions(accessLog string, slowMS int) (ObsOptions, io.Closer, error) {
	o := ObsOptions{SlowThreshold: time.Duration(slowMS) * time.Millisecond}
	var closer io.Closer
	switch accessLog {
	case "":
	case "-":
		o.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return o, nil, fmt.Errorf("access log: %w", err)
		}
		o.AccessLog = f
		closer = f
	}
	if slowMS > 0 && o.AccessLog == nil {
		o.SlowLog = os.Stderr
	}
	return o, closer, nil
}
