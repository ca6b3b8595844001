package server

import "github.com/graphstream/gsketch/internal/obs"

// counters are the server's monotonic request counters. They live in
// the server's obs registry (as gsketch_*_total Prometheus counters);
// byKey lists each under its /stats key, so /stats renders the same
// values from the same counters.
type counters struct {
	byKey []keyedCounter

	ingestRequests      *obs.Counter // POST /ingest requests handled
	edgesAccepted       *obs.Counter // edges accepted: queued (HTTP) or admitted for the connection's fold (wire)
	edgesRejected       *obs.Counter // edges refused with 429 / rejected > 0 (queue full, tenant quota, shard queue)
	queryRequests       *obs.Counter // POST /query requests handled
	queriesAnswered     *obs.Counter // individual edge queries answered
	windowQueries       *obs.Counter // POST /query/window requests handled
	snapshotsSaved      *obs.Counter // successful snapshot saves
	snapshotsRestored   *obs.Counter // successful snapshot restores
	repartitionRequests *obs.Counter // POST /repartition requests handled
	compactRequests     *obs.Counter // POST /compact requests handled

	// Wire-protocol counters, for the TCP listener.
	wireFrames       *obs.Counter // request frames decoded
	wireDecodeErrors *obs.Counter // frames rejected as malformed
	wireBytesIn      *obs.Counter // bytes read off wire transports
	wireBytesOut     *obs.Counter // bytes written to wire transports
}

// keyedCounter is a counter with its /stats key.
type keyedCounter struct {
	key string
	c   *obs.Counter
}

func newCounters(reg *obs.Registry) *counters {
	c := &counters{}
	mk := func(statsKey, promName, help string) *obs.Counter {
		ctr := reg.Counter(promName, help)
		c.byKey = append(c.byKey, keyedCounter{statsKey, ctr})
		return ctr
	}
	c.ingestRequests = mk("ingest_requests",
		"gsketch_ingest_requests_total", "Ingest requests handled (HTTP and wire).")
	c.edgesAccepted = mk("edges_accepted",
		"gsketch_edges_accepted_total", "Edges accepted: queued by HTTP ingest or admitted for a wire connection's own fold.")
	c.edgesRejected = mk("edges_rejected",
		"gsketch_edges_rejected_total", "Edges shed under backpressure.")
	c.queryRequests = mk("query_requests",
		"gsketch_query_requests_total", "Query requests handled (HTTP and wire).")
	c.queriesAnswered = mk("queries_answered",
		"gsketch_queries_answered_total", "Individual edge queries answered.")
	c.windowQueries = mk("window_query_requests",
		"gsketch_window_query_requests_total", "Window query requests handled.")
	c.snapshotsSaved = mk("snapshots_saved",
		"gsketch_snapshots_saved_total", "Successful snapshot saves.")
	c.snapshotsRestored = mk("snapshots_restored",
		"gsketch_snapshots_restored_total", "Successful snapshot restores.")
	c.repartitionRequests = mk("repartition_requests",
		"gsketch_repartition_requests_total", "Repartition requests handled.")
	c.compactRequests = mk("compact_requests",
		"gsketch_compact_requests_total", "Compaction requests handled.")
	c.wireFrames = mk("wire_frames",
		"gsketch_wire_frames_total", "Wire request frames decoded.")
	c.wireDecodeErrors = mk("wire_decode_errors",
		"gsketch_wire_decode_errors_total", "Wire frames rejected as malformed.")
	c.wireBytesIn = mk("wire_bytes_in",
		"gsketch_wire_bytes_in_total", "Bytes read off wire transports.")
	c.wireBytesOut = mk("wire_bytes_out",
		"gsketch_wire_bytes_out_total", "Bytes written to wire transports.")
	return c
}

// addTo sets every counter's value under its /stats key.
func (c *counters) addTo(stats map[string]any) {
	for _, kc := range c.byKey {
		stats[kc.key] = kc.c.Value()
	}
}
