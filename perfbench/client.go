package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outcome is one request as the generator saw it. Times are offsets from
// the phase start; latency is timed from when the request was due, so a
// stall also charges every request queued behind it.
type outcome struct {
	req    *request
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	err    error
	// source and planMS come from a summary response; window and execute
	// bodies are kept raw and decoded by the checks after measurement.
	source string
	planMS float64
	body   []byte
}

func (o *outcome) latencyMS() float64 { return msOf(o.done - o.due) }
func (o *outcome) serviceMS() float64 { return msOf(o.done - o.sent) }

// phase is one open-loop run at a fixed rate.
type phase struct {
	rate     float64
	out      []*outcome
	lateness []float64 // dispatcher lateness per dispatched request, ms
	// backlogMax is the most requests that were due but not yet sent;
	// backlogEnd is the backlog when dispatching stopped.
	backlogMax int
	backlogEnd int
	aborted    bool
	elapsed    time.Duration
}

// client is the benchmark's single load generator: one process, at most
// conns connections.
type client struct {
	base  string
	conns int
	hc    *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, conns: conns, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and fills the outcome's response fields.
func (c *client) do(o *outcome) {
	resp, err := c.hc.Post(c.base+o.req.path(), "application/json", bytes.NewReader(o.req.body()))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(body)))
		return
	}
	if o.req.Kind == opSummary {
		var pr struct {
			Source string  `json:"source"`
			PlanMS float64 `json:"plan_ms"`
		}
		if err := json.Unmarshal(body, &pr); err != nil {
			o.err = fmt.Errorf("decoding summary: %w", err)
			return
		}
		o.source, o.planMS = pr.Source, pr.PlanMS
	}
	o.body = body
}

// runOpen drives an open loop: request i is due at i/rate after the start,
// whatever happened to earlier ones. A dispatcher hands due requests to
// c.conns senders; a request waits in the backlog while every sender is
// busy. If the backlog exceeds maxBacklog (> 0) the phase stops
// dispatching: the rate is beyond what the server sustains, and queued
// requests that were never sent are dropped, not counted.
func (c *client) runOpen(s stream, rate float64, dur time.Duration, maxBacklog int) *phase {
	ph := &phase{rate: rate}
	total := int(rate * dur.Seconds())
	// Sized to every request the phase can dispatch, so the dispatcher
	// never blocks and its lateness measures only its own timer.
	queue := make(chan *outcome, total)
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		stopped = make(chan struct{})
	)
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				select {
				case <-stopped:
					continue // aborted phase: drain without sending
				default:
				}
				o.sent = time.Since(start)
				c.do(o)
				o.done = time.Since(start)
				mu.Lock()
				ph.out = append(ph.out, o)
				mu.Unlock()
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := 0; i < total; i++ {
		due := time.Duration(float64(i) * interval)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ph.lateness = append(ph.lateness, msOf(time.Since(start)-due))
		queue <- &outcome{req: s.next(), due: due}
		b := len(queue)
		if b > ph.backlogMax {
			ph.backlogMax = b
		}
		if maxBacklog > 0 && b > maxBacklog {
			ph.aborted = true
			close(stopped)
			break
		}
	}
	ph.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(start)
	sort.Slice(ph.out, func(i, j int) bool { return ph.out[i].req.ID < ph.out[j].req.ID })
	return ph
}

// get fetches a path and returns the body of a 200 answer.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrape reads /metrics into name → value for unlabelled samples.
func (c *client) scrape() (map[string]float64, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// waitReady polls /healthz until the server answers or budget runs out.
func (c *client) waitReady(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		_, err := c.get("/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gossipd at %s not healthy within %s: %w", c.base, budget, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warm sends requests closed-loop over the client's connections, in order
// per connection, and fails on the first error.
func (c *client) warm(reqs []*request) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan *request)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				o := &outcome{req: r}
				c.do(o)
				if o.err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("warm-up %s %s: %w", r.path(), r.Topo, o.err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range reqs {
		next <- r
	}
	close(next)
	wg.Wait()
	return first
}
