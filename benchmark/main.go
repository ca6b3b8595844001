// Command benchmark is the repository's one benchmark: four serving
// workloads driven against a gsketch-serve child process, end-to-end metrics
// a user of the server would see, and a layer ladder from hashutil to
// cluster. See README.md.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark run     [-seed n] [-seconds s] [-runs n] [-scale full|smoke] [-out file]
//	benchmark trace   [-seed n] [-seconds s] [-scale full|smoke] [-out file]
//	benchmark compare [-bounds-x f] <a.json> <b.json>
//
// The first form is the driver contract of BENCHMARK.json: one workload,
// one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:], false)
		case "trace":
			return cmdRun(args[1:], true)
		case "compare":
			return cmdCompare(args[1:])
		}
	}
	return cmdDriver(args)
}

// errIncorrect is returned after the result has been printed: a run that
// failed its own checks exits non-zero.
var errIncorrect = errors.New("the run failed its correctness checks")

// common are the flags every running mode shares.
type common struct {
	root    string
	seed    uint64
	seconds float64
	scale   string
	fault   string
}

func (c *common) register(fs *flag.FlagSet) {
	fs.StringVar(&c.root, "root", "", "repository root (default: the nearest parent holding BENCHMARK.json)")
	fs.Uint64Var(&c.seed, "seed", 1, "generator seed; the server receives only generated inputs")
	fs.Float64Var(&c.seconds, "seconds", refSeconds, "how long one run measures")
	fs.StringVar(&c.scale, "scale", "full", "full, or smoke to divide op counts by 100")
	fs.StringVar(&c.fault, "fault", "", "inject a fault the checks must catch: corrupt-shadow or kill-server")
}

// resolve fills the defaults and builds the server into <root>/.bench_build;
// go's build cache makes that a look-up when nothing changed.
func (c *common) resolve() (options, error) {
	if c.scale != "full" && c.scale != "smoke" {
		return options{}, fmt.Errorf("unknown -scale %q", c.scale)
	}
	if c.seconds <= 0 {
		return options{}, fmt.Errorf("-seconds must be positive")
	}
	if c.root == "" {
		dir, err := os.Getwd()
		if err != nil {
			return options{}, err
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				c.root = dir
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return options{}, errors.New("no BENCHMARK.json in any parent directory; pass -root")
			}
			dir = parent
		}
	}
	root, err := filepath.Abs(c.root)
	if err != nil {
		return options{}, err
	}
	c.root = root
	build := filepath.Join(root, ".bench_build")
	workDir := filepath.Join(build, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return options{}, err
	}
	serveBin := filepath.Join(build, "gsketch-serve")
	cmd := exec.Command("go", "build", "-o", serveBin, "./cmd/gsketch-serve")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return options{}, fmt.Errorf("build gsketch-serve: %w", err)
	}
	var corrupt bool
	var killAt int
	switch c.fault {
	case "":
	case "corrupt-shadow":
		corrupt = true
	case "kill-server":
		killAt = 2
	default:
		return options{}, fmt.Errorf("unknown -fault %q", c.fault)
	}
	return options{
		corruptShadow: corrupt,
		killAtFrame:   killAt,

		bin:     serveBin,
		workDir: workDir,
		outDir:  filepath.Join(root, "benchmark", "out"),
		seed:    c.seed,
		seconds: c.seconds,
		smoke:   c.scale == "smoke",
	}, nil
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func cmdDriver(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c common
	c.register(fs)
	name := fs.String("workload", "", "workload to run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	opt, err := c.resolve()
	if err != nil {
		return err
	}
	opt.trace = *trace != 0
	o, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	report(o)
	line, err := json.Marshal(driverLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return errIncorrect
	}
	return nil
}

// report tells a human, on standard error, what the JSON line cannot.
func report(o *outcome) {
	for _, p := range o.Problems {
		fmt.Fprintf(os.Stderr, "%s: INCORRECT: %s\n", o.Workload, p)
	}
	for _, p := range o.Invalid {
		fmt.Fprintf(os.Stderr, "%s: INVALID: %s\n", o.Workload, p)
	}
	var ops []string
	for k, v := range o.Ops {
		ops = append(ops, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(ops)
	fmt.Fprintf(os.Stderr, "%s: %s\n", o.Workload, strings.Join(ops, " "))
}

func cmdRun(args []string, traced bool) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	var c common
	c.register(fs)
	runs := fs.Int("runs", 3, "runs per workload; medians and quartiles are over them")
	out := fs.String("out", "", "result file (default: <root>/benchmark/out/run.json or trace.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traced {
		*runs = 1
	}
	opt, err := c.resolve()
	if err != nil {
		return err
	}
	opt.trace = traced
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(opt.outDir, "run.json")
		if traced {
			*out = filepath.Join(opt.outDir, "trace.json")
		}
	}
	file := &resultFile{envelope: newEnvelope(c.root, c.seed, opt.smoke, c.seconds, traced)}
	incorrect := false
	for i := range workloads {
		w := &workloads[i]
		res := file.workload(w.Name)
		for n := 0; n < *runs; n++ {
			o, err := runWorkload(w, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			report(o)
			res.add(o)
		}
		incorrect = incorrect || !res.Correct
		printWorkload(res, traced)
	}
	if err := file.write(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (valid: %v)\n", *out, file.Valid)
	if incorrect {
		return errIncorrect
	}
	return nil
}

func printWorkload(res *workloadResult, traced bool) {
	fmt.Printf("\n## %s  (%d run(s), %d of %d ops failed)\n", res.Name, res.Runs, res.Failed, res.Attempted)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tsamples")
	for _, d := range defs {
		if s := res.Metrics[d.Name]; s != nil {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, s.Unit, s.Median, s.Q1, s.Q3, s.Samples)
		}
	}
	tw.Flush()
	if traced {
		printLadder(res)
	}
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	boundsX := fs.Float64("bounds-x", 1, "multiply every bound (smoke-scale runs are noisier)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: benchmark compare [-bounds-x f] <base.json> <new.json>")
	}
	base, err := readResultFile(fs.Arg(0))
	if err != nil {
		return err
	}
	next, err := readResultFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if compare(os.Stdout, base, next, *boundsX) {
		return errors.New("at least one metric got worse")
	}
	return nil
}
