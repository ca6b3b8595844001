package main

import (
	"fmt"
	"net"
	"sort"
	"time"
)

// The reference job. The reference host is a two-CPU share of a larger
// machine, and how fast it runs the same instructions changes by a third to
// a half from one minute to the next (README, "What the host does"): over 25
// runs of the same binary spread over 45 minutes the closed-loop workloads'
// throughput ranged over 40-55 % of its median, with runs of ten in a row at
// one speed or the other. No statistic taken inside a run removes a change of
// speed that outlasts the run, and no bound of at most 25 % absorbs it.
//
// So every run also times a small frozen job of the load generator's own, in
// the pauses between its stretches of traffic, and reports its timings in
// units of that job: a time is divided, a rate multiplied, by how many times
// slower than nominal the job ran around the same moment of the same run.
//
// The job is round trips of 64 bytes over a loopback TCP connection between
// two goroutines of the load generator: system calls, the network stack and
// waking a parked thread on the other CPU, which is what every request of
// every workload does too. Over those 25 runs its time followed each
// workload's own with a correlation of 0.93-0.99, and in sets of ten runs
// taken while the host changed speed it took the quartile spread of
// throughput and server CPU from 13-55 % to 2-6 %.
//
// Walks over 1 MiB and 16 MiB tables were tried as second and third parts of
// the job and left out: they follow where the load generator's own pages
// happened to land (the same walk ran 1.8 times slower in one process than
// in the next while the server beside it ran the same), so they added noise
// of their own: with them the open loop's spread was 31-43 % in a set where
// the clock's own figures spread 10-16 %.
//
// The job never calls into the repository: it has to stay what it is while
// the code under test changes, or a later change would move the yardstick
// together with what it measures. For the same reason its size and nominal
// time are constants, the same for every workload.
const (
	refRoundTrips = 512
	// refNominal is one sample's time on the reference host between its
	// fast state (8.3 us a round trip) and its slow one (13.4 us).
	refNominal = 11e-6 * refRoundTrips // s
)

// hostRef times the reference job. One goroutine at a time takes samples;
// the echo goroutine is its own.
type hostRef struct {
	conn, peer net.Conn
	buf        [64]byte
	samples    []float64   // each: how many times slower than nominal the job ran
	at         []time.Time // when each sample was half done
}

func newHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	peer, ok := <-accepted
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("loopback accept failed")
	}
	h := &hostRef{conn: conn, peer: peer}
	go func() { // echo
		var buf [64]byte
		for {
			if _, err := peer.Read(buf[:]); err != nil {
				return
			}
			if _, err := peer.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	return h, nil
}

func (h *hostRef) close() {
	h.conn.Close()
	h.peer.Close()
}

// sample runs the reference job once, some 5 ms, and records how many times
// slower than nominal it ran. A broken loopback connection records nothing;
// the caller finds no samples and says so.
func (h *hostRef) sample() {
	t0 := time.Now()
	for i := 0; i < refRoundTrips; i++ {
		if _, err := h.conn.Write(h.buf[:]); err != nil {
			return
		}
		if _, err := h.conn.Read(h.buf[:]); err != nil {
			return
		}
	}
	d := time.Since(t0)
	h.samples = append(h.samples, d.Seconds()/refNominal)
	h.at = append(h.at, t0.Add(d/2))
}

// ratio is how many times slower than nominal the host ran the reference job
// over the run: the mean of the middle half of the samples, which a
// pre-empted sample does not move.
func (h *hostRef) ratio() (float64, error) {
	if len(h.samples) == 0 {
		return 0, fmt.Errorf("the reference job took no sample")
	}
	return midMean(sortedCopy(h.samples)), nil
}

// refNear is how many samples either side of the nearest one speak for a
// moment of the run: with a sample every quarter of a second that is under
// two seconds, long enough to average the samples' own noise and short
// enough to follow the host when it changes speed in the middle of a run.
const refNear = 3

// near is how many times slower than nominal the host ran the reference job
// around time t: the mean of the middle half of the samples nearest to t.
// It needs at least one sample.
func (h *hostRef) near(t time.Time) float64 {
	j := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(t) })
	if j == len(h.at) || j > 0 && t.Sub(h.at[j-1]) < h.at[j].Sub(t) {
		j--
	}
	return midMean(sortedCopy(h.samples[max(j-refNear, 0):min(j+refNear+1, len(h.samples))]))
}
