package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"standout/internal/compact"
	"standout/internal/dataset"
	"standout/internal/obsv"
	"standout/internal/serve"
	"standout/internal/shard"
)

// hooks wrap what the benchmark hands the program: server handlers, shard
// backends and the shard backends' HTTP client. The traced run's *tracer
// times them; a nil *tracer returns each unchanged.
type hooks interface {
	wrap(layer string, h http.Handler) http.Handler
	backend(b shard.Backend) shard.Backend
	client() *http.Client
}

// deployment is one start-up of the program under test: a serve node, or
// serve shards behind a coordinator, each on its own loopback listener.
type deployment struct {
	url string            // where clients send requests
	log *dataset.QueryLog // the start-up log (after compaction)
	// serveRegs are the serve nodes' registries (the front node or every
	// shard); coordReg is the coordinator's, nil when unsharded.
	serveRegs []*obsv.Registry
	coordReg  *obsv.Registry
	// steps times the start-up steps, for the traced run's per-layer
	// numbers: "compact", "partition".
	steps map[string]time.Duration
	stops []func()
}

// close stops every server and waits for its listener goroutine to end.
// It drops the references to the servers, so their memory can be freed.
func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops, d.serveRegs, d.coordReg = nil, nil, nil
}

// listen serves h on a fresh loopback port and registers its shutdown.
func (d *deployment) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	d.stops = append(d.stops, func() {
		_ = hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// startUp brings the workload's servers up from the raw log and waits until
// every one answers /readyz with 200. The returned duration is set-up time:
// compaction, partitioning, server construction, listeners and the first
// index build, from the already generated inputs.
func startUp(ctx context.Context, w spec, raw *dataset.QueryLog, tr hooks) (*deployment, time.Duration, error) {
	runtime.GC() // every start-up begins from the same collected heap
	t0 := time.Now()
	d := &deployment{log: raw, steps: map[string]time.Duration{}}
	if w.compacted {
		s := time.Now()
		d.log, _ = compact.Compact(raw)
		d.steps["compact"] = time.Since(s)
	}
	if err := d.build(ctx, w, tr); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// redeploy starts fresh servers over an already compacted start-up log (the
// rounds of a freshRounds workload) and waits for readiness.
func redeploy(ctx context.Context, w spec, log *dataset.QueryLog, tr hooks) (*deployment, error) {
	d := &deployment{log: log, steps: map[string]time.Duration{}}
	if err := d.build(ctx, w, tr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) build(ctx context.Context, w spec, tr hooks) error {
	var ready []string
	if w.shards == 0 {
		reg := obsv.NewRegistry()
		s, err := serve.New(serve.Config{Log: d.log, Registry: reg})
		if err != nil {
			return fmt.Errorf("serve.New: %w", err)
		}
		d.stops = append(d.stops, s.Close)
		d.serveRegs = []*obsv.Registry{reg}
		if d.url, err = d.listen(tr.wrap("serve", s.Handler())); err != nil {
			return err
		}
		return waitReady(ctx, d.url)
	}

	s := time.Now()
	parts, err := shard.Partition(ctx, d.log, w.shards)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	d.steps["partition"] = time.Since(s)
	backends := make([]shard.Backend, len(parts))
	for i, p := range parts {
		reg := obsv.NewRegistry()
		ss, err := serve.New(serve.Config{Log: p, Registry: reg})
		if err != nil {
			return fmt.Errorf("serve.New shard %d: %w", i, err)
		}
		d.stops = append(d.stops, ss.Close)
		d.serveRegs = append(d.serveRegs, reg)
		url, err := d.listen(tr.wrap("serve", ss.Handler()))
		if err != nil {
			return err
		}
		ready = append(ready, url)
		backends[i] = tr.backend(shard.NewHTTP(fmt.Sprintf("s%d", i), url, tr.client()))
	}
	d.coordReg = obsv.NewRegistry()
	co, err := shard.NewServer(shard.Config{Backends: backends, Schema: d.log.Schema, Registry: d.coordReg})
	if err != nil {
		return fmt.Errorf("shard.NewServer: %w", err)
	}
	d.stops = append(d.stops, co.Close)
	if d.url, err = d.listen(tr.wrap("shard", co.Handler())); err != nil {
		return err
	}
	for _, u := range append(ready, d.url) {
		if err := waitReady(ctx, u); err != nil {
			return err
		}
	}
	return nil
}

// waitReady polls GET /readyz until it answers 200. A serve node's first
// readyz call starts its index build in the background.
func waitReady(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := pollClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return errors.Join(fmt.Errorf("%s/readyz: not ready", base), err)
		}
		// Poll again at once: a sleep lasts a whole timer tick (about 1ms
		// on some virtual machines), longer than a small log's index build.
		runtime.Gosched()
	}
}

var pollClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
