package cluster

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
	"dvfsched/internal/sim"
)

// overflowFrame declares two entries whose four blob lengths (2^62,
// 2^62, 2^62, 2^62+3) sum to 2^64+3: a running int sum wraps to 3,
// exactly the blob bytes the frame carries.
func overflowFrame() []byte {
	hdr := `{"sessions":[` +
		`{"id":"a","events_len":4611686018427387904,"checkpoint_len":4611686018427387904},` +
		`{"id":"b","events_len":4611686018427387904,"checkpoint_len":4611686018427387907}]}`
	body := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	body = append(body, hdr...)
	return append(body, "xyz"...)
}

// realFrame builds a well-formed two-entry frame the way the shipper
// does: a fast-path header, then per entry a DVFB event blob and
// (for the first) a DVSC checkpoint blob.
func realFrame(tb testing.TB) []byte {
	tb.Helper()
	events := obs.AppendBinary(nil, []obs.Event{
		{Seq: 1, T: 0, Kind: obs.KindArrival, Core: -1, Task: 1, Cycles: 2},
		{Seq: 2, T: 0, Kind: obs.KindStart, Core: 0, Task: 1, Rate: 2.4},
	})
	cp, err := (&sim.Checkpoint{PolicyName: "lmc", Clock: 1, EvSeq: 2}).MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	more := obs.AppendBinary(nil, []obs.Event{{Seq: 7, T: 3, Kind: obs.KindComplete, Core: 1, Task: 4}})
	body, ok := appendFrameHeader([]byte{0, 0, 0, 0}, []frameEntry{
		{ID: "s-n1-000001", EventsLen: len(events), CheckpointLen: len(cp)},
		{ID: "s-n1-000002", EventsLen: len(more)},
	})
	if !ok {
		tb.Fatal("fast header encoder refused plain entries")
	}
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	body = append(body, events...)
	body = append(body, cp...)
	return append(body, more...)
}

// TestReplicaFrameRejectsLengthOverflow sends a frame whose blob
// lengths wrap a summed total back to the carried byte count. The
// replica must refuse it as malformed instead of slicing past the
// blob area.
func TestReplicaFrameRejectsLengthOverflow(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	n, err := NewNode(Config{ID: "n1", Peers: map[string]string{"n1": "http://127.0.0.1:1"}}, srv)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/replica/frame", bytes.NewReader(overflowFrame()))
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing frame: status %d (%s), want 400", rec.Code, rec.Body)
	}
	if ids := n.replicas.ids(); len(ids) != 0 {
		t.Fatalf("refused frame left replicas %v", ids)
	}
}

// FuzzDecodeFrame feeds arbitrary bodies to the replica-side frame
// parser. It must never panic, and every frame it accepts must split
// into per-entry blobs (the slices handleReplicaFrame takes) that stay
// in bounds, match the declared lengths and consume the blob area
// exactly.
func FuzzDecodeFrame(f *testing.F) {
	good := realFrame(f)
	f.Add(good)
	f.Add(overflowFrame())
	f.Add(good[:len(good)-1]) // blob area one byte short
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Fuzz(func(t *testing.T, body []byte) {
		hdr, blobs, err := decodeFrame(body)
		if err != nil {
			return
		}
		rest := blobs
		for _, e := range hdr.Sessions {
			var ev, cp []byte
			ev, cp, rest = entryBlobs(rest, e)
			if len(ev) != e.EventsLen || len(cp) != e.CheckpointLen {
				t.Fatalf("session %q: got %d+%d blob bytes, header declares %d+%d",
					e.ID, len(ev), len(cp), e.EventsLen, e.CheckpointLen)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("accepted frame leaves %d of %d blob bytes unclaimed", len(rest), len(blobs))
		}
	})
}
