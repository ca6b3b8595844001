// Command gsketch-wire is a client for the binary wire protocol served by
// gsketch-serve -wire-addr (see internal/wire for the frame format). It
// exists for smoke tests and operational poking: ingest an edge file,
// answer ad-hoc queries with their ε·N_i bounds, or flush the server's
// ingest pipeline, all over one TCP connection.
//
// Usage:
//
//	gsketch-wire -addr host:port ingest [file]       edges from file or stdin
//	gsketch-wire -addr host:port query src dst ...   one query per src/dst pair
//	gsketch-wire -addr host:port flush               drain the ingest pipeline
//	gsketch-wire -addr host:port ping                health probe with RTT
//
// Against a multi-tenant server (gsketch-serve -tenants), -tenant NAME
// sends a tenant-select frame before the subcommand, binding the
// connection to that tenant's engine.
//
// Ingest reads the text edge format ("src dst [weight [time]]" per line,
// '#' comments) or the GSED binary format, sniffed by magic; "-" or no
// argument reads stdin. Chunks shed by a saturated pipeline are retried
// until accepted. Query prints one line per result:
//
//	src dst estimate error_bound confidence partition [outlier]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gsketch-wire: ")
	var (
		addr   = flag.String("addr", "127.0.0.1:7072", "wire-protocol server address")
		chunk  = flag.Int("chunk", 8192, "edges per ingest frame")
		tenant = flag.String("tenant", "", "bind the connection to this tenant first (multi-tenant servers)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatalf("need a subcommand: ingest, query or flush")
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if *tenant != "" {
		if err := c.SelectTenant(*tenant); err != nil {
			log.Fatalf("select tenant %q: %v", *tenant, err)
		}
	}

	switch cmd := flag.Arg(0); cmd {
	case "ingest":
		edges, err := readEdges(flag.Args()[1:])
		if err != nil {
			log.Fatal(err)
		}
		retries, err := c.IngestAll(edges, *chunk)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %d edges (%d shed retries)\n", len(edges), retries)
	case "query":
		qs, err := parseQueries(flag.Args()[1:])
		if err != nil {
			log.Fatal(err)
		}
		results, err := c.Query(nil, qs)
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range results {
			outlier := ""
			if r.Outlier {
				outlier = " outlier"
			}
			fmt.Printf("%d %d %d %g %g %d%s\n",
				qs[i].Src, qs[i].Dst, r.Estimate, r.ErrorBound, r.Confidence, r.Partition, outlier)
		}
	case "flush":
		if err := c.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("flushed")
	case "ping":
		pong, rtt, err := c.Ping()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pong: stream_total %d queue_depth %d generations %d rtt %s\n",
			pong.StreamTotal, pong.QueueDepth, pong.Generations, rtt)
	default:
		log.Fatalf("unknown subcommand %q (want ingest, query, flush or ping)", cmd)
	}
}

// readEdges loads the edge stream named by args ("-" or nothing = stdin),
// in either edge-file format.
func readEdges(args []string) ([]stream.Edge, error) {
	if len(args) > 1 {
		return nil, fmt.Errorf("ingest takes at most one file argument")
	}
	if len(args) == 1 && args[0] != "-" {
		return stream.ReadEdgeFile(args[0], 0)
	}
	return stream.ReadEdges(os.Stdin, 0)
}

// parseQueries turns "src dst src dst ..." arguments into a query batch.
func parseQueries(args []string) ([]core.EdgeQuery, error) {
	if len(args) == 0 || len(args)%2 != 0 {
		return nil, fmt.Errorf("query takes src/dst pairs (got %d arguments)", len(args))
	}
	qs := make([]core.EdgeQuery, len(args)/2)
	for i := range qs {
		src, err := strconv.ParseUint(args[2*i], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad src %q: %v", args[2*i], err)
		}
		dst, err := strconv.ParseUint(args[2*i+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad dst %q: %v", args[2*i+1], err)
		}
		qs[i] = core.EdgeQuery{Src: src, Dst: dst}
	}
	return qs, nil
}
