package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"dvfsched/internal/trace"
)

// This file is the serving plane's request-decode fast path, the
// mirror image of encode.go: a single-pass parser for the two bodies
// that carry a task list (PlanRequest and SubmitRequest). It accepts
// only a common shape whose meaning under encoding/json is plain —
// keys spelled exactly as the struct tags and each at most once,
// unescaped printable-ASCII strings, integer literals that fit in int,
// float literals through the same strconv.ParseFloat encoding/json
// calls, true/false, and deadline as a number. Anything else (null,
// case-variant, duplicate or unknown keys, escapes, non-ASCII bytes,
// out-of-range numbers, syntax errors) re-decodes the same bytes with
// the strict decoder, so the fast path changes no value, verdict or
// error message. decode_test.go holds the two to that with a table
// test and differential fuzz targets.
//
// Buffer ownership: the body is read into a pooled buffer that only
// decodeTasksBody holds, from Get to Put. Every decoded string is
// copied out of it, so nothing in the decoded request aliases it.

const (
	// bodyBufInitial is the capacity a fresh pooled body buffer starts
	// with: a one-task submit fits many times over.
	bodyBufInitial = 4 << 10
	// bodyBufRetain is the largest buffer returned to the pool; a
	// bigger one (a huge plan, up to maxBodyBytes) is left to the GC so
	// a single request cannot pin that much memory.
	bodyBufRetain = 1 << 20
)

// bodyBufPool recycles request-body buffers. Entries are *[]byte so Put
// does not allocate a new header box per cycle.
var bodyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bodyBufInitial)
		return &b
	},
}

// requestBody is the one reader every request-body decoder reads
// through: r's body capped at maxBodyBytes. Reading past the cap fails
// with *http.MaxBytesError, which writeAPIError answers with 413, and
// tells the server to close the connection after the reply.
func requestBody(w http.ResponseWriter, r *http.Request) io.ReadCloser {
	return http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

// strictDecode is the reference decoder: encoding/json with unknown
// fields rejected, first value only (trailing bytes are not read).
func strictDecode(src io.Reader, dst any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeTasksBody reads r's body once and decodes it into dst, a
// *PlanRequest or *SubmitRequest: through the fast path when the body
// has the common shape, through strictDecode over the same bytes
// otherwise.
func decodeTasksBody(w http.ResponseWriter, r *http.Request, dst any) error {
	bp := bodyBufPool.Get().(*[]byte)
	// The read loop stays in this function so the capped reader's
	// concrete type is visible and it does not escape to the heap.
	body := requestBody(w, r)
	b := (*bp)[:0]
	var err error
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = decodeTasks(b, dst)
	} else {
		err = fmt.Errorf("bad request body: %w", err)
	}
	if cap(b) <= bodyBufRetain {
		*bp = b[:0]
		bodyBufPool.Put(bp)
	}
	return err
}

// decodeTasks decodes body into dst (*PlanRequest or *SubmitRequest).
func decodeTasks(body []byte, dst any) error {
	switch dst := dst.(type) {
	case *PlanRequest:
		if parseTasksBody(body, dst, nil) {
			return nil
		}
		return fallbackDecode(body, dst)
	case *SubmitRequest:
		if parseTasksBody(body, nil, dst) {
			return nil
		}
		return fallbackDecode(body, dst)
	}
	panic("decodeTasks: destination must be *PlanRequest or *SubmitRequest")
}

// fallbackDecode runs the strict decoder over body into a fresh value
// and copies it to dst, overwriting whatever a failed fast-path parse
// left there. Decoding into a fresh value keeps dst itself off the
// heap on the fast path.
func fallbackDecode[T any](body []byte, dst *T) error {
	v := new(T)
	err := strictDecode(bytes.NewReader(body), v)
	*dst = *v
	return err
}

// parseTasksBody is the fast path. Exactly one of plan and sub is
// non-nil; the keys of the other request type are unknown fields. It
// reports false when the body is outside the common shape, leaving the
// destination partly written.
func parseTasksBody(body []byte, plan *PlanRequest, sub *SubmitRequest) bool {
	p := bodyParser{b: body}
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		var bit uint8
		switch {
		case string(key) == "tasks":
			bit = 1 << 0
			if plan != nil {
				ok = p.records(&plan.Tasks)
			} else {
				ok = p.records(&sub.Tasks)
			}
		case plan != nil && string(key) == "cores":
			bit = 1 << 1
			plan.Cores, ok = p.intValue()
		case plan != nil && string(key) == "platform":
			bit = 1 << 2
			plan.Platform, ok = p.stringValue()
		case plan != nil && string(key) == "re":
			bit = 1 << 3
			plan.Re, ok = p.floatValue()
		case plan != nil && string(key) == "rt":
			bit = 1 << 4
			plan.Rt, ok = p.floatValue()
		case sub != nil && string(key) == "clamp":
			bit = 1 << 5
			sub.Clamp, ok = p.boolValue()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}

// bodyParser is a cursor over a request body.
type bodyParser struct {
	b []byte
	i int
}

// skipSpace advances past JSON whitespace.
func (p *bodyParser) skipSpace() {
	if p.i < len(p.b) && p.b[p.i] > ' ' {
		return
	}
	for _, c := range p.b[p.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.i++
	}
}

// eat consumes c after optional whitespace, reporting whether it was
// there. Compact bodies have no whitespace, so c is tried first.
func (p *bodyParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII with no escapes and returns its
// contents, which alias the body.
func (p *bodyParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	rest := p.b[p.i:]
	for j, c := range rest {
		if c == '"' {
			p.i += j + 1
			return rest[:j], true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// stringValue scans a string value into a fresh Go string.
func (p *bodyParser) stringValue() (string, bool) {
	s, ok := p.str()
	return string(s), ok
}

// digits consumes a run of decimal digits, reporting whether there was
// at least one.
func (p *bodyParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// number scans a JSON number literal; isInt reports that it has neither
// a fraction nor an exponent. What follows the literal is the caller's
// to check, so "01" fails there on the unexpected "1".
func (p *bodyParser) number() (lit []byte, isInt, ok bool) {
	p.skipSpace()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case !p.digits():
		return nil, false, false
	}
	isInt = true
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return nil, false, false
		}
		isInt = false
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false, false
		}
		isInt = false
	}
	return p.b[start:p.i], isInt, true
}

// intValue scans an integer literal that fits in int, parsed as
// encoding/json parses it.
func (p *bodyParser) intValue() (int, bool) {
	lit, isInt, ok := p.number()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	return int(v), err == nil
}

// floatValue scans a number literal in range for float64, parsed as
// encoding/json parses it.
func (p *bodyParser) floatValue() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// boolValue scans true or false.
func (p *bodyParser) boolValue() (bool, bool) {
	p.skipSpace()
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += len("false")
		return false, true
	}
	return false, false
}

// records scans a task array. An empty array decodes to an empty,
// non-nil slice, as encoding/json decodes it.
func (p *bodyParser) records(dst *[]trace.Record) bool {
	if !p.eat('[') {
		return false
	}
	recs := []trace.Record{}
	if !p.eat(']') {
		for {
			recs = append(recs, trace.Record{})
			if !p.record(&recs[len(recs)-1]) {
				return false
			}
			if !p.eat(',') {
				break
			}
		}
		if !p.eat(']') {
			return false
		}
	}
	*dst = recs
	return true
}

// record scans one task object into r.
func (p *bodyParser) record(r *trace.Record) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "id":
			bit = 1 << 0
			r.ID, ok = p.intValue()
		case "name":
			bit = 1 << 1
			r.Name, ok = p.stringValue()
		case "cycles":
			bit = 1 << 2
			r.Cycles, ok = p.floatValue()
		case "arrival":
			bit = 1 << 3
			r.Arrival, ok = p.floatValue()
		case "deadline":
			bit = 1 << 4
			var d float64
			if d, ok = p.floatValue(); ok {
				r.Deadline = &d
			}
		case "interactive":
			bit = 1 << 5
			r.Interactive, ok = p.boolValue()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}
