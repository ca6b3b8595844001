// Command gsketch-bench regenerates the paper's evaluation artifacts
// (Figures 4–14, Table 1 and the §6.1 variance ratios) on the synthetic
// stand-in datasets, and the adapt figure, which compares rotation
// policies on a drifting stream, and prints them as aligned tables.
//
// Usage:
//
//	gsketch-bench [-profile repro|small] [-run id[,id...]] [-list] [-csv dir]
//
// Examples:
//
//	gsketch-bench -list
//	gsketch-bench -run fig4,fig5
//	gsketch-bench -profile small -run all
//
// Serving throughput, latency and accuracy are measured by the repository
// benchmark under benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/graphstream/gsketch/internal/experiments"
)

func main() {
	var (
		profileName = flag.String("profile", "repro", "dataset scale profile: repro or small")
		run         = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		csvDir      = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.AllExperiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var profile experiments.Profile
	switch *profileName {
	case "repro":
		profile = experiments.Repro
	case "small":
		profile = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "gsketch-bench: unknown profile %q (want repro or small)\n", *profileName)
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.AllExperiments()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.FindExperiment(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "gsketch-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	h := experiments.NewHarness(experiments.NewRegistry(profile))
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsketch-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("# %s (%s, %v)\n\n", e.Title, profile.Name, time.Since(start).Round(time.Millisecond))
		for i := range tables {
			if err := tables[i].Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "gsketch-bench: print: %v\n", err)
				os.Exit(1)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, &tables[i]); err != nil {
					fmt.Fprintf(os.Stderr, "gsketch-bench: csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
}

func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
