// Command uvmsimd is the uvmdiscard simulation service: a long-running
// HTTP/JSON daemon that runs workload simulations and experiment batches on
// a bounded worker pool with production-grade robustness — load shedding
// under backpressure (503 + Retry-After), per-run wall-clock deadlines and
// sim-time budgets enforced by a watchdog inside the driver loop, per-request
// panic isolation, graceful shutdown (in-flight runs drain, queued runs are
// shed), crash-safe batch journals: a batch killed mid-run (kill -9
// included) resumes from its journal and renders byte-identical output —
// and, with -data-dir, crash-survivable checkpointed runs: a fir run
// submitted with a "checkpoint" name persists an fsync'd step marker at
// every step boundary, and a re-submitted run after a SIGKILL of the whole
// daemon resumes from the last marker by re-simulating the finished steps,
// producing bytes identical to an uninterrupted run.
//
// Endpoints:
//
//	POST   /v1/runs                  {"workload":"fir","system":"UvmDiscard","ovsp":200,"quick":true}
//	POST   /v1/batches               {"experiments":["T3","T4"],"quick":true,"journal":"nightly"}
//	GET    /v1/jobs                  list jobs (bounded: see -retain)
//	GET    /v1/jobs/{id}             job status, output when finished
//	GET    /v1/jobs/{id}/progress    live progress stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}             cancel a queued or running job
//	GET    /v1/experiments           available experiment IDs
//	GET    /v1/metrics               admission/outcome counters (JSON)
//	GET    /metrics                  Prometheus text exposition (DESIGN.md §12)
//	GET    /healthz                  ok | draining
//
// With -worker -coordinator=URL the daemon instead joins a fleet (DESIGN.md
// §14): it serves nothing and pulls leased jobs from a uvmfleet
// coordinator, renewing each lease at runctl checkpoints and reporting
// results idempotently.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"uvmdiscard/internal/fleet"
	"uvmdiscard/internal/service"
	"uvmdiscard/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "listen address (use :0 for an ephemeral port)")
		workers    = flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "admission queue depth; submits beyond it are shed with 503")
		journalDir = flag.String("journal-dir", "", "directory for crash-safe batch journals (empty disables)")
		dataDir    = flag.String("data-dir", "", "directory for per-run checkpoint markers (empty disables checkpointed runs)")
		wallBudget = flag.Duration("wall-budget", 2*time.Minute, "default per-job wall-clock deadline")
		simBudget  = flag.Duration("sim-budget", 0, "default per-run simulated-time budget (0 = unlimited)")
		drainWait  = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight runs")
		retain     = flag.Int("retain", 256, "finished jobs kept for GET /v1/jobs; oldest terminal jobs are evicted beyond this")

		workerMode  = flag.Bool("worker", false, "run as a fleet worker pulling leased jobs instead of serving HTTP")
		coordinator = flag.String("coordinator", "", "coordinator base URL for -worker mode (e.g. http://127.0.0.1:8078)")
		workerName  = flag.String("worker-name", "", "fleet worker name (-worker mode; default <hostname>-<pid>)")
		capacity    = flag.Int("capacity", 0, "concurrent leased jobs in -worker mode (0 = -workers, then GOMAXPROCS)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "uvmsimd: ", log.LstdFlags)
	if *workerMode {
		runWorker(logger, *coordinator, *workerName, *capacity, *workers)
		return
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			logger.Fatalf("journal dir: %v", err)
		}
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			logger.Fatalf("data dir: %v", err)
		}
	}
	srv := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		JournalDir:        *journalDir,
		DataDir:           *dataDir,
		DefaultWallBudget: *wallBudget,
		DefaultSimBudget:  sim.Time(*simBudget),
		RetainJobs:        *retain,
		Log:               logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The smoke harness parses this line to discover an ephemeral port.
	fmt.Printf("uvmsimd listening on %s\n", ln.Addr())
	//uvmlint:ignore errsink -- stdout may be a pipe where fsync is unsupported; the line above is what matters
	os.Stdout.Sync()

	hs := service.NewHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining in-flight runs, shedding queue")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Printf("drain window expired, in-flight runs canceled: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(shutCtx)
	logger.Printf("bye")
}

// runWorker is the -worker mode: join the fleet behind the coordinator and
// pull leased jobs until interrupted. Worker death needs no goodbye — the
// coordinator discovers it by heartbeat timeout and lease expiry, which is
// the whole point of the protocol.
func runWorker(logger *log.Logger, coordinator, name string, capacity, workers int) {
	if coordinator == "" {
		logger.Fatalf("-worker requires -coordinator=URL")
	}
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "uvmsimd"
		}
		name = fmt.Sprintf("%s-%d", sanitizeName(host), os.Getpid())
	}
	if capacity < 1 {
		capacity = workers
	}
	if capacity < 1 {
		capacity = runtime.GOMAXPROCS(0)
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		Name:     name,
		Capacity: capacity,
		Log:      logger,
	}, fleet.NewClient(coordinator))
	// The smoke harness parses this line, mirroring the serving banner.
	fmt.Printf("uvmsimd worker %s pulling from %s\n", name, coordinator)
	//uvmlint:ignore errsink -- stdout may be a pipe where fsync is unsupported; the line above is what matters
	os.Stdout.Sync()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		logger.Fatalf("worker: %v", err)
	}
	logger.Printf("worker %s stopping", name)
}

// sanitizeName squeezes a hostname into the fleet's label-safe alphabet.
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	out := b.String()
	if out == "" {
		return "uvmsimd"
	}
	if len(out) > 40 {
		out = out[:40]
	}
	return out
}
