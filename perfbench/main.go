// Command perfbench is the repository's benchmark. One run executes one
// named workload for a fixed time with a seed, checks every answer, and
// prints one JSON result line last on stdout:
//
//	perfbench -gossipd <bin> -workdir <dir> --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// run.sh builds this program and gossipd from the checkout and calls it.
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. The fuller
// record (every timing with its sample count, the reconciliation and the
// provenance) is printed as one JSON line just before the result.
//
// Workloads (see README.md for the reasons behind each):
//
//	serve-mix     gossipd /plan summaries: a resident hot set plus cold
//	              builds and disk reloads, open loop at a fixed rate
//	serve-replay  gossipd round windows and /execute under loss over plans
//	              built during set-up, open loop at a fixed rate
//	lib-pipeline  the library alone: PlanGossip, every round, Simulate,
//	              ExecuteWithFaults, closed loop over a fixed job list
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what ran where.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Params     map[string]any `json:"params"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	procs   int
	gossipd string
	workdir string
	params  map[string]any
}

// report is what a workload hands back: the result line's counts and
// metrics plus a free-form record for the line before it.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	record            map[string]any
}

func (r *report) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

var workloads = map[string]func(env) (*report, error){
	"serve-mix":    runServeMix,
	"serve-replay": runServeReplay,
	"lib-pipeline": runLibPipeline,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: serve-mix, serve-replay or lib-pipeline")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		gossipd  = flag.String("gossipd", "", "gossipd binary (serve workloads)")
		workdir  = flag.String("workdir", ".bench_build/perfbench/run", "scratch directory for stores and logs")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want serve-mix, serve-replay or lib-pipeline)", *workload))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds %d: want at least 1", *seconds))
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	dir, err := os.MkdirTemp(mustMkdir(*workdir), *workload+"-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	e := env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		procs: procs, gossipd: *gossipd, workdir: dir, params: map[string]any{},
	}
	rep, err := run(e)
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	commit, srcHash := sourceIdentity()
	rep.record["provenance"] = provenance{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: e.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit, SourceHash: srcHash, Params: e.params,
	}
	if len(rep.failures) > 0 {
		rep.record["failures"] = rep.failures
	}
	rec, err := json.Marshal(rep.record)
	if err != nil {
		fail(fmt.Errorf("encoding record: %w", err))
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println(string(rec))
	line, err := json.Marshal(result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics,
	})
	if err != nil {
		fail(fmt.Errorf("encoding result: %w", err))
	}
	fmt.Println(string(line))
}

// logf reports progress on stderr with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %7.2fs: %s\n", time.Since(startTime).Seconds(), fmt.Sprintf(format, args...))
}

var startTime = time.Now()

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

// sourceIdentity names the code that ran: the VCS revision when the binary
// was built inside a git checkout, and always a SHA-256 over the module's
// Go sources and go.mod files, so a run from an exported tree is still
// identified.
func sourceIdentity() (commit, digest string) {
	commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}
