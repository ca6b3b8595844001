package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// The ladders in rung order. A rung's self time is its cost minus the
// cost of the rung below it: what that layer adds to one op.
var (
	ingestLadder = []string{
		"hashutil.hash_ns_per_key",
		"sketch.update_ns_per_edge",
		"core.gsketch_update_ns_per_edge",
		"core.concurrent_update_ns_per_edge",
		"ingest.push_ns_per_edge",
		"engine.ingest_ns_per_edge",
		"server.wire_ingest_ns_per_edge",
		"server.http_ingest_ns_per_edge",
		"tenant.http_ingest_ns_per_edge",
	}
	queryLadder = []string{
		"sketch.estimate_ns_per_query",
		"core.gsketch_estimate_ns_per_query",
		"core.concurrent_estimate_ns_per_query",
		"engine.query_ns_per_query",
		"server.wire_query_ns_per_query",
		"server.http_query_ns_per_query",
	}
)

// printLadder prints each rung with its self time, then how the child's
// measured CPU per op splits over three groups of layers, so the
// predictions in README.md can be checked against a trace.
func printLadder(res *workloadResult) {
	val := func(name string) float64 {
		if s := res.Metrics[name]; s != nil {
			return s.Median
		}
		return 0
	}
	for _, l := range []struct {
		title string
		rungs []string
	}{{"ingest ladder, ns per edge", ingestLadder}, {"query ladder, ns per query", queryLadder}} {
		fmt.Printf("\n%s\n", l.title)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "rung\tcost\tself (cost - rung below)")
		below := 0.0
		for _, name := range l.rungs {
			v := val(name)
			fmt.Fprintf(tw, "%s\t%.1f\t%+.1f\n", name, v, v-below)
			below = v
		}
		tw.Flush()
	}

	// Shares of the server's CPU per edge on the traced rep. The kernel
	// group is everything up to the partitioned sketch (hash, row update,
	// router, scatter), then what core.Concurrent's stripe locks add, then
	// the rest of what the child spent: the ingest queue, the Engine, wire
	// or HTTP/JSON decoding, connection handling, tenant resolution, GC and
	// the kernel's side of the sockets. The first two are serial in-process
	// costs, so on a busy two-CPU host they understate the child's own.
	cpu := val("server.cpu_ns_per_edge")
	if cpu <= 0 {
		return
	}
	kernel := val("core.gsketch_update_ns_per_edge")
	locked := val("core.concurrent_update_ns_per_edge")
	if locked < kernel {
		locked = kernel // timing noise: the locks cannot cost less than nothing
	}
	share := func(v float64) float64 { return 100 * v / cpu }
	fmt.Printf("\nserver CPU per edge on the traced rep: %.1f ns\n", cpu)
	fmt.Printf("  sketch + hashutil + router (core.GSketch and below): %5.1f%%\n", share(kernel))
	fmt.Printf("  core.Concurrent stripe locks:                        %5.1f%%\n", share(locked-kernel))
	fmt.Printf("  rungs above core.Concurrent (queue, Engine, server,\n")
	fmt.Printf("  wire or HTTP/JSON, tenant):                          %5.1f%%\n", share(cpu-locked))
}
