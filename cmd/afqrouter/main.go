// Command afqrouter is the scale-out coordinator: it fronts N replica
// afqserver processes and exposes the SAME /v1 surface, so clients
// point at the router and cannot tell a fleet from one node.
//
//	afqrouter -replicas http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Single /v1/query and /v1/explain requests route by rendezvous
// hashing of the canonical query terms (each replica's term-vector
// cache stays hot on its slice of the vocabulary, with automatic
// failover down the rendezvous order); /v1/query/batch panels split
// deterministically across the fleet and merge back in request order.
// /v1/reformulate applies feedback on the owning replica and then
// replays the learned rate vector onto every other replica with CAS
// version tokens; /v1/corpus/swap fans out to all replicas — the whole
// fleet advances through the same (generation, ratesVersion) sequence.
// A background health loop marks replicas up/down; /v1/router/healthz
// reports the fleet view and /metrics exposes the afq_router_*
// families. See DESIGN.md §11 and API.md for the full contract.
//
// Run exactly ONE router per fleet: it is the serialization point for
// writes, which is what keeps replica version counters comparable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"authorityflow/internal/router"
	"authorityflow/internal/server"
)

// name prefixes the listen banner afqbench and CI parse.
const name = "afqrouter"

func main() {
	var (
		addr     = flag.String("addr", "localhost:8090", "listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		health   = flag.Duration("health-interval", router.DefaultHealthInterval, "replica health-sweep period")
		timeout  = flag.Duration("timeout", router.DefaultTimeout, "per-attempt timeout of every replica exchange")

		accessLog = flag.String("access-log", "", `access log destination: "" off, "-" stderr, else a file path`)
		slowMS    = flag.Int("slow-request-ms", 0, "log routed requests slower than this many milliseconds with their span events (0 disables)")
	)
	flag.Parse()

	urls := splitURLs(*replicas)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "afqrouter: -replicas requires at least one replica URL")
		os.Exit(1)
	}

	logs, logCloser, err := server.LogOptions(*accessLog, *slowMS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqrouter: %v\n", err)
		os.Exit(1)
	}
	if logCloser != nil {
		defer logCloser.Close()
	}

	rt, err := router.New(urls, router.Options{
		Timeout:        *timeout,
		HealthInterval: *health,
		Obs:            router.ObsOptions{AccessLog: logs.AccessLog, SlowLog: logs.SlowLog, SlowThreshold: logs.SlowThreshold},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "afqrouter: %v\n", err)
		os.Exit(1)
	}

	log.Printf("afqrouter: fronting %d replicas: %s", len(urls), strings.Join(urls, ", "))
	if err := server.Run(context.Background(), name, *addr, rt.Handler(), rt.Close); err != nil {
		log.Fatalf("afqrouter: %v", err)
	}
}

// splitURLs parses the -replicas flag: comma-separated, blanks ignored.
func splitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
