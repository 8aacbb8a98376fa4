// Command bench is the repository's benchmark: four socket-level workloads
// against an in-process tbnetd stack, six measured end-to-end metrics — the
// timed ones priced at a reference host speed, because this class of host
// does not run at one — and a per-layer cost ladder timed from outside the
// layers. README.md in this directory is the glossary; BENCHMARK.json at the
// repository root is the driver's contract.
//
//	bash bench/run.sh -seed 1                       every workload, both runs, table + bench/out/result.json
//	bash bench/run.sh --workload tiny_rpc --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, so tensor's worker pool is
// sized the same on every host. tensor reads it at package init, which is why
// it has to be in the environment before the process starts.
const pinnedProcs = "2"

const defaultSeconds = 20

func main() {
	if os.Getenv("GOMAXPROCS") != pinnedProcs {
		os.Setenv("GOMAXPROCS", pinnedProcs)
		exe, err := os.Executable()
		if err == nil {
			err = syscall.Exec(exe, os.Args, os.Environ())
		}
		fmt.Fprintln(os.Stderr, "bench: re-exec with GOMAXPROCS pinned:", err)
		os.Exit(1)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "run one workload and print its result line (empty: run all)")
	seed := flag.Uint64("seed", 1, "seed for weights, inputs, request order and obfuscation RNG")
	seconds := flag.Int("seconds", defaultSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the ladder and a traced pass")
	quick := flag.Bool("quick", false, "smoke mode: 1 s windows, 20 ladder passes, 3 cold starts")
	runs := flag.Int("runs", 1, "all-workloads mode: how many times to run each workload")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json, span files and scratch registries")
	flag.Parse()

	opts := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		coldStarts: 15, coldFor: 1500 * time.Millisecond, passes: 300, outDir: *out, log: os.Stdout,
	}
	if *quick {
		opts.window, opts.coldStarts, opts.coldFor, opts.passes = time.Second, 3, 0, 20
	}
	var err error
	if *name == "" {
		err = runAll(opts, *quick, *runs)
	} else {
		err = runOne(*name, opts, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure prepares one workload and takes either its end-to-end or its
// per-layer measurement.
func measure(w *workload, opts options, traced bool) (*result, error) {
	r, err := prepare(w, opts)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	if traced {
		return r.traced()
	}
	return r.endToEnd()
}

// runOne is the driver's entry: one workload, one result line, exit status
// non-zero when any output was wrong.
func runOne(name string, opts options, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := measure(w, opts, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runRecord is one run of one workload in result.json: both result lines.
type runRecord struct {
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// report is result.json: what `bench compare` reads.
type report struct {
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	NProc     int                    `json:"nproc"`
	Go        string                 `json:"go"`
	Workloads map[string][]runRecord `json:"workloads"`
}

// runAll runs every workload in its own child process — so each has its own
// RSS and GC history — untraced then traced, prints every metric by name
// with its unit, and writes result.json.
func runAll(opts options, quick bool, runs int) error {
	rep := report{
		Seed: opts.seed, Seconds: opts.window.Seconds(),
		NProc: runtime.NumCPU(), Go: runtime.Version(),
		Workloads: make(map[string][]runRecord),
	}
	wrong := 0
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			rec := runRecord{}
			for _, traced := range []bool{false, true} {
				res, err := runChild(w.name, opts, quick, traced)
				if err != nil {
					return err
				}
				rec.Attempted += res.Attempted
				rec.Failed += res.Failed
				if !res.Correct {
					wrong++
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				values := make(map[string]float64, len(defs))
				for _, d := range defs {
					values[d.Name] = res.Metrics[d.Name].Value
					fmt.Printf("%-18s %-30s %14.4f %s\n", w.name, d.Name, values[d.Name], d.Unit)
				}
				if traced {
					rec.PerLayer = values
				} else {
					rec.EndToEnd = values
				}
			}
			fmt.Printf("%-18s ops_attempted %d ops_failed %d\n", w.name, rec.Attempted, rec.Failed)
			rep.Workloads[w.name] = append(rep.Workloads[w.name], rec)
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opts.outDir, "result.json"), data, 0o644); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d runs produced wrong outputs", wrong)
	}
	return nil
}

// runChild re-executes this binary for one workload and parses the result
// line, the last line of its standard output.
func runChild(name string, opts options, quick, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(opts.seed, 10),
		"-seconds", strconv.Itoa(int(opts.window.Seconds())), "-out", opts.outDir,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, note := range lines[:len(lines)-1] {
		fmt.Printf("%s\n", note)
	}
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", name, err, jerr)
	}
	return &res, nil
}
