package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopKeepsItsSchedule drives a stub handler with a fixed
// service time at 4000 requests/s over 2 connections: a rate at which
// a time.Ticker generator that sends one request per tick delivers
// well under half its offered load on a small VM. The due-time
// generator must send every offered request at the offered rate, and
// each request's latency minus its lateness must be the stub's service
// time plus a loopback round trip.
func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("times a half-second load")
	}
	const (
		service = 100 * time.Microsecond
		rate    = 4000.0
		conns   = 2
		perConn = 1000
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		for time.Since(start) < service {
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()

	base := time.Now()
	start := 20 * time.Millisecond
	samples := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(stub.URL)
			defer cl.close()
			req, err := cl.request(http.MethodPost, "/")
			if err != nil {
				t.Error(err)
				return
			}
			body := []byte(`{}`)
			due := schedule(perConn, c, conns, rate)
			for i := range due {
				due[i] += start
			}
			samples[c] = make([]sample, perConn)
			openLoop(base, due, func(int) bool {
				status, err := cl.do(req, body)
				return err != nil || status != http.StatusOK
			}, samples[c])
		}(c)
	}
	wg.Wait()

	st := summarizeOpen([][]sample{slices.Concat(samples...)}, rate)
	if st.Sent != st.Offered || st.Offered != conns*perConn {
		t.Fatalf("sent %d of %d offered requests", st.Sent, st.Offered)
	}
	if st.SentRatio < 0.95 || st.SentRatio > 1.05 {
		t.Errorf("achieved/offered send rate = %.3f, want about 1", st.SentRatio)
	}
	var rtt []float64
	for _, conn := range samples {
		for _, s := range conn {
			if s.Failed {
				t.Fatalf("request failed: %+v", s)
			}
			if s.Late() < 0 {
				t.Fatalf("request sent before it was due: %+v", s)
			}
			rtt = append(rtt, float64(s.Latency()-s.Late()))
		}
	}
	got := time.Duration(median(rtt))
	if got < service || got > service+2*time.Millisecond {
		t.Errorf("median latency - lateness = %v, want the %v service time plus a loopback round trip", got, service)
	}
}

func TestClosedLoopTimesEachRequestFromItsSend(t *testing.T) {
	base := time.Now()
	out := make([]sample, 3)
	var sent []int
	closedLoop(base, func(i int) bool {
		sent = append(sent, i)
		time.Sleep(time.Millisecond)
		return i == 1
	}, out)
	if len(sent) != 3 || sent[0] != 0 || sent[2] != 2 {
		t.Fatalf("sent %v", sent)
	}
	for i, s := range out {
		if s.Late() != 0 || s.Latency() < time.Millisecond || s.Failed != (i == 1) {
			t.Errorf("sample %d = %+v", i, s)
		}
		if i > 0 && s.Sent < out[i-1].Done {
			t.Errorf("request %d sent before request %d's reply", i, i-1)
		}
	}
}

func TestSentRatioSkipsTheGapsBetweenSegments(t *testing.T) {
	// Two stretches at 1000/s (one request per ms), 5 s apart: the
	// generator kept the rate inside both, so the ratio is 1.
	var segs [][]sample
	for _, at := range []time.Duration{0, 5 * time.Second} {
		seg := make([]sample, 11)
		for i := range seg {
			sent := at + time.Duration(i)*time.Millisecond
			seg[i] = sample{Due: sent, Sent: sent, Done: sent + time.Millisecond}
		}
		segs = append(segs, seg)
	}
	st := summarizeOpen(segs, 1000)
	if math.Abs(st.SentRatio-1) > 1e-9 || st.Sent != 22 || st.Offered != 22 {
		t.Errorf("sent %d of %d at ratio %v, want 22 of 22 at 1", st.Sent, st.Offered, st.SentRatio)
	}
	segs[1][10].Done = 0 // never sent: it counts as offered, not sent
	if st := summarizeOpen(segs, 1000); st.Sent != 21 || st.Offered != 22 {
		t.Errorf("sent %d of %d, want 21 of 22", st.Sent, st.Offered)
	}
}

func TestShareCutsEveryRequestOnce(t *testing.T) {
	for _, n := range []int{0, 4, 5000, 30001} {
		sum, lo := 0, n
		for k := 0; k < 5; k++ {
			sum += share(n, k, 5)
			lo = min(lo, share(n, k, 5))
		}
		if sum != n || n/5-lo > 0 {
			t.Errorf("share(%d, k, 5) sums to %d, smallest %d", n, sum, lo)
		}
	}
}
