package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// replyTimeout bounds how long any request waits for its reply
// headers, so a wedged server fails the run instead of hanging it.
const replyTimeout = 60 * time.Second

// client is one benchmark connection: an HTTP client pinned to a
// single keep-alive TCP connection to one node. Request objects and
// the reply buffer are reused, so sending allocates nothing of the
// benchmark's own.
type client struct {
	base string // node base URL
	hc   *http.Client

	mu    sync.Mutex
	local []string // local addresses of the TCP connections dialed

	body   bodyReader
	rewind func() (io.ReadCloser, error) // body.rewind, bound once
	reply  bytes.Buffer
}

func newClient(base string) *client {
	c := &client{base: base}
	c.rewind = c.body.rewind
	var d net.Dialer
	c.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost:   1,
		MaxConnsPerHost:       1,
		DisableCompression:    true,
		ResponseHeaderTimeout: replyTimeout,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err == nil {
				c.mu.Lock()
				c.local = append(c.local, conn.LocalAddr().String())
				c.mu.Unlock()
			}
			return conn, err
		},
	}}
	return c
}

// localAddrs returns the local addresses this client has dialed from;
// a server sees them as the request's RemoteAddr.
func (c *client) localAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.local...)
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// request builds a reusable request for method and path on this
// client's node.
func (c *client) request(method, path string) (*http.Request, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// do sends req with a pre-encoded body (nil for none) and reads the
// whole reply into c.reply. The reply is valid until the next call.
func (c *client) do(req *http.Request, body []byte) (int, error) {
	req.Body, req.GetBody, req.ContentLength = nil, nil, 0
	if body != nil {
		c.body.reset(body)
		req.Body, req.GetBody, req.ContentLength = &c.body, c.rewind, int64(len(body))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.reply.Reset()
	_, err = c.reply.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read reply: %w", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, nil
}

// call is do for one-off requests: it builds the request, sends body
// marshaled as JSON (nothing when body is nil), requires status want
// and decodes the reply into out when out is non-nil.
func (c *client) call(method, path string, hdr http.Header, body any, want int, out any) error {
	req, err := c.request(method, path)
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	var raw []byte
	if body != nil {
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	status, err := c.do(req, raw)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(c.reply.Bytes()))
	}
	if out != nil {
		return json.Unmarshal(c.reply.Bytes(), out)
	}
	return nil
}

// bodyReader is a rewindable request body over a pre-encoded byte
// slice; its rewind method doubles as the request's GetBody.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) reset(b []byte) { r.b, r.off = b, 0 }

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

func (r *bodyReader) rewind() (io.ReadCloser, error) {
	r.off = 0
	return r, nil
}
