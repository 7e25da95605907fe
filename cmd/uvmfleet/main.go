// Command uvmfleet fronts the fleet coordinator (internal/fleet): a durable
// job queue handing work to a crash-prone pool of uvmsimd -worker processes
// under time-bounded leases (DESIGN.md §14). The journal makes the queue
// survive kill -9: restart uvmfleet on the same journal and every
// unfinished job is still there, with attempt numbers intact.
//
// Endpoints:
//
//	POST /v1/jobs              {"tenant":"t1","experiment":"T3","quick":true}
//	GET  /v1/jobs/{id}         job status, output when finished
//	GET  /v1/fleet             workers, tenants, job counts, protocol counters
//	GET  /metrics              Prometheus text exposition (uvmfleet_* families)
//	GET  /healthz              ok, or 503 once a journal append has failed
//	POST /v1/workers/register, /v1/workers/heartbeat,
//	     /v1/lease, /v1/lease/renew, /v1/complete   (worker protocol)
//
// Quickstart (three workers, one coordinator):
//
//	uvmfleet -addr 127.0.0.1:8078 -journal fleet.journal &
//	for i in 1 2 3; do uvmsimd -worker -coordinator=http://127.0.0.1:8078 -worker-name w$i & done
//	curl -s -XPOST localhost:8078/v1/jobs -d '{"tenant":"me","experiment":"T3","quick":true}'
//
// Kill a worker mid-job; the lease expires and the job finishes on another
// worker with byte-identical output.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uvmdiscard/internal/fleet"
	"uvmdiscard/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8078", "listen address (use :0 for an ephemeral port)")
		journal     = flag.String("journal", "", "crash-safe coordinator journal path (empty = in-memory, nothing survives restart)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "lease lifetime without renewal")
		hbTimeout   = flag.Duration("heartbeat-timeout", 0, "silence after which a worker is declared dead (0 = 3x lease-ttl)")
		maxAttempts = flag.Int("max-attempts", 5, "lease attempts per job before it fails permanently")
		backoff     = flag.Duration("retry-backoff", 250*time.Millisecond, "base requeue backoff (doubles per attempt)")
		quota       = flag.Int("tenant-quota", 64, "max queued+leased jobs per tenant")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "uvmfleet: ", log.LstdFlags)
	coord, err := fleet.New(fleet.Config{
		JournalPath:      *journal,
		LeaseTTL:         *leaseTTL,
		HeartbeatTimeout: *hbTimeout,
		MaxAttempts:      *maxAttempts,
		RetryBackoff:     *backoff,
		TenantQuota:      *quota,
		Log:              logger,
	})
	if err != nil {
		logger.Fatalf("coordinator: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The smoke harness parses this line to discover an ephemeral port.
	fmt.Printf("uvmfleet listening on %s\n", ln.Addr())
	//uvmlint:ignore errsink -- stdout may be a pipe where fsync is unsupported; the line above is what matters
	os.Stdout.Sync()
	logger.Printf("fleet: %s", coord.State())

	hs := service.NewHTTPServer(coord.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(shutCtx)
	if err := coord.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	logger.Printf("bye")
}
