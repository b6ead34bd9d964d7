package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// decodeCase is one body for the fast-path/strict-decoder differential.
// fast names the request types whose fast path must accept the body
// ("plan", "submit", "both" or "" for neither), so the table pins which
// path runs as well as what it returns.
type decodeCase struct {
	name string
	body string
	fast string
}

var decodeCases = []decodeCase{
	{"case-variant key", `{"tasks":[{"ID":1,"cycles":5}]}`, ""},
	{"null cycles", `{"tasks":[{"id":1,"cycles":null}]}`, ""},
	{"null tasks", `{"tasks":null}`, ""},
	{"null deadline", `{"tasks":[{"id":1,"cycles":5,"deadline":null}]}`, ""},
	{"float id", `{"tasks":[{"id":1.0,"cycles":5}]}`, ""},
	{"exponent id", `{"tasks":[{"id":1e2,"cycles":5}]}`, ""},
	{"id overflow", `{"tasks":[{"id":9223372036854775808,"cycles":5}]}`, ""},
	{"cycles out of range", `{"tasks":[{"id":1,"cycles":1e999}]}`, ""},
	{"cycles underflow", `{"tasks":[{"id":1,"cycles":1e-400}]}`, "both"},
	{"duplicate tasks key", `{"tasks":[{"id":1,"name":"a","cycles":5}],"tasks":[{"id":2}]}`, ""},
	{"duplicate record key", `{"tasks":[{"id":1,"id":2,"cycles":5}]}`, ""},
	{"escaped name", `{"tasks":[{"id":1,"name":"a\u0041","cycles":5}]}`, ""},
	{"invalid utf-8 name", "{\"tasks\":[{\"id\":1,\"name\":\"a\xff\",\"cycles\":5}]}", ""},
	{"non-ascii name", `{"tasks":[{"id":1,"name":"é","cycles":5}]}`, ""},
	{"control byte in name", "{\"tasks\":[{\"id\":1,\"name\":\"a\tb\",\"cycles\":5}]}", ""},
	{"unknown field", `{"tasks":[{"id":1,"cycles":5}],"bogus":1}`, ""},
	{"unknown record field", `{"tasks":[{"id":1,"cycles":5,"bogus":1}]}`, ""},
	{"trailing bytes", `{"tasks":[{"id":1,"cycles":5}]} trailing {garbage`, "both"},
	{"leading BOM", "\xef\xbb\xbf{\"tasks\":[{\"id\":1,\"cycles\":5}]}", ""},
	{"empty tasks", `{"tasks":[]}`, "both"},
	{"empty object", `{}`, "both"},
	{"empty record", `{"tasks":[{}]}`, "both"},
	{"whitespace everywhere", " \n\t{ \"tasks\" :\r[ { \"id\" : 1 , \"cycles\" : 5 , \"interactive\" : true } , {\"id\":2,\"cycles\":6} ] } \n", "both"},
	{"truncated", `{"tasks":[{"id":1,"cyc`, ""},
	{"truncated after object member", `{"tasks":[{"id":1,"cycles":5}]`, ""},
	{"empty body", ``, ""},
	{"top-level array", `[{"id":1}]`, ""},
	{"trailing comma", `{"tasks":[{"id":1,"cycles":5},]}`, ""},
	{"leading zero", `{"tasks":[{"id":01,"cycles":5}]}`, ""},
	{"bare minus", `{"tasks":[{"id":-,"cycles":5}]}`, ""},
	{"negative zero", `{"tasks":[{"id":-0,"cycles":-0.0,"arrival":-0e0}]}`, "both"},
	{"number forms", `{"tasks":[{"id":-7,"cycles":1.5E+3,"arrival":2e-3,"deadline":0.25}]}`, "both"},
	{"string for number", `{"tasks":[{"id":"1","cycles":5}]}`, ""},
	{"number for bool", `{"tasks":[{"id":1,"cycles":5,"interactive":1}]}`, ""},
	{"misspelled literal", `{"tasks":[{"id":1,"cycles":5,"interactive":tru}]}`, ""},
	{"record not an object", `{"tasks":[1]}`, ""},
	{"full plan", `{"cores":4,"platform":"i7","re":0.1,"rt":0.4,"tasks":[{"id":0,"name":"gcc/166","cycles":12.5,"arrival":0}]}`, "plan"},
	{"plan key twice", `{"cores":4,"cores":2,"tasks":[{"id":0,"cycles":5}]}`, ""},
	{"platform null", `{"platform":null,"tasks":[{"id":0,"cycles":5}]}`, ""},
	{"full submit", `{"clamp":true,"tasks":[{"id":3,"name":"query","cycles":0.02,"arrival":1.5,"deadline":2,"interactive":true}]}`, "submit"},
	{"clamp false", `{"tasks":[{"id":3,"cycles":2,"arrival":1}],"clamp":false}`, "submit"},
}

// judgeSubmitBody is a one-task Judge-trace submit as perfbench sends
// it: an interactive query with a name and a firm deadline.
func judgeSubmitBody(t testing.TB) []byte {
	t.Helper()
	d := 12.75
	body, err := json.Marshal(SubmitRequest{Tasks: []trace.Record{{
		ID: 4711, Name: "query", Cycles: 0.0123456789, Arrival: 12.25, Deadline: &d, Interactive: true,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// planMixBody is a perfbench-shaped plan: n uniform batch tasks on the
// i7 table.
func planMixBody(t testing.TB, n int) []byte {
	t.Helper()
	tasks, err := workload.Uniform(rand.New(rand.NewSource(int64(n))), n, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, len(tasks))
	for i, task := range tasks {
		recs[i] = trace.FromTask(task)
	}
	body, err := json.Marshal(PlanRequest{
		PlatformSpec: PlatformSpec{Cores: 4, Platform: "i7", Re: 0.1, Rt: 0.4},
		Tasks:        recs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// checkDecodeParity decodes body with decode and with the strict
// decoder and requires the same verdict, error message and value. It
// reports whether the fast path accepted the body.
func checkDecodeParity[T PlanRequest | SubmitRequest](t *testing.T, body []byte, decode func(*T) error) bool {
	t.Helper()
	var got, want T
	gotErr := decode(&got)
	wantErr := strictDecode(bytes.NewReader(body), &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("verdict differs on %q:\n got %v\nwant %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("value differs on %q:\n got %+v\nwant %+v", body, got, want)
	}
	// DeepEqual compares floats with ==; the encodings also compare the
	// sign of zero and the deadline pointers' targets.
	gotJSON, err1 := json.Marshal(got)
	wantJSON, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("encoding differs on %q:\n got %s (%v)\nwant %s (%v)", body, gotJSON, err1, wantJSON, err2)
	}
	var fast T
	switch dst := any(&fast).(type) {
	case *PlanRequest:
		return parseTasksBody(body, dst, nil)
	case *SubmitRequest:
		return parseTasksBody(body, nil, dst)
	}
	return false
}

// TestDecodeTasksBodyMatchesStrict runs every table case through the
// handlers' body reader and decoder and through the strict decoder, as
// both request types.
func TestDecodeTasksBodyMatchesStrict(t *testing.T) {
	viaHandler := func(body []byte) func(dst any) error {
		return func(dst any) error {
			r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
			return decodeTasksBody(httptest.NewRecorder(), r, dst)
		}
	}
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			decode := viaHandler(body)
			planFast := checkDecodeParity(t, body, func(dst *PlanRequest) error { return decode(dst) })
			submitFast := checkDecodeParity(t, body, func(dst *SubmitRequest) error { return decode(dst) })
			wantPlan := tc.fast == "both" || tc.fast == "plan"
			wantSubmit := tc.fast == "both" || tc.fast == "submit"
			if planFast != wantPlan || submitFast != wantSubmit {
				t.Errorf("fast path: plan %v submit %v, want plan %v submit %v", planFast, submitFast, wantPlan, wantSubmit)
			}
		})
	}
	t.Run("perfbench shapes", func(t *testing.T) {
		plan, submit := planMixBody(t, 48), judgeSubmitBody(t)
		if !checkDecodeParity(t, plan, func(dst *PlanRequest) error { return viaHandler(plan)(dst) }) {
			t.Error("48-task plan took the fallback")
		}
		if !checkDecodeParity(t, submit, func(dst *SubmitRequest) error { return viaHandler(submit)(dst) }) {
			t.Error("Judge submit took the fallback")
		}
	})
}

// seedDecodeCorpus seeds a decode fuzz target with the perfbench shapes
// and every table case.
func seedDecodeCorpus(f *testing.F) {
	f.Add(planMixBody(f, 48))
	f.Add(judgeSubmitBody(f))
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
}

func FuzzDecodePlanBody(f *testing.F) {
	seedDecodeCorpus(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body, func(dst *PlanRequest) error { return decodeTasks(body, dst) })
	})
}

func FuzzDecodeSubmitBody(f *testing.F) {
	seedDecodeCorpus(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body, func(dst *SubmitRequest) error { return decodeTasks(body, dst) })
	})
}

// TestDecodeSubmitBodyAllocs pins the one-task submit decode — body
// read included — to the allocations its values need: the task slice,
// the name and the deadline. Reading and parsing allocate nothing per
// field.
func TestDecodeSubmitBodyAllocs(t *testing.T) {
	body := judgeSubmitBody(t)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/tasks", rd)
	w := newDiscardResponseWriter()
	var req SubmitRequest
	n := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		req = SubmitRequest{}
		if err := decodeTasksBody(w, r, &req); err != nil {
			t.Fatal(err)
		}
	})
	if len(req.Tasks) != 1 || req.Tasks[0].Deadline == nil {
		t.Fatalf("decoded %+v", req)
	}
	const maxAllocs = 3
	if n > maxAllocs {
		t.Errorf("one-task submit decode: %v allocs/op, want <= %d", n, maxAllocs)
	}
}

// spaceReader yields n spaces, so a test can stream a body of any size
// without holding it.
type spaceReader struct{ n int }

func (s *spaceReader) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// TestOversizeBodyIs413 posts a plan padded with trailing whitespace to
// exactly maxBodyBytes (accepted) and one byte past it (413
// body_too_large, not a truncation 400).
func TestOversizeBodyIs413(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	plan := `{"tasks":[{"id":0,"cycles":5}]}`
	for _, tc := range []struct {
		size int
		want int
	}{
		{maxBodyBytes, http.StatusOK},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		body := io.MultiReader(strings.NewReader(plan), &spaceReader{n: tc.size - len(plan)})
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", body))
		if w.Code != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d (%s)", tc.size, w.Code, tc.want, w.Body)
		}
		if tc.want == http.StatusRequestEntityTooLarge {
			var eresp errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || eresp.Error.Code != "body_too_large" {
				t.Fatalf("413 envelope: %s (%v)", w.Body, err)
			}
		}
	}
}
