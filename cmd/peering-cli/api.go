package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// apiTimeout bounds every request except a watch stream's body: a
// wedged or unreachable peeringd must fail the verb, not hang the CLI.
const apiTimeout = 10 * time.Second

var errNotFound = errors.New("not found")

// apiClient speaks the HTTP API of a running peeringd, /metrics and the
// /v1 control plane. It owns the one rule that turns an -addr (host:port
// or a URL) into request URLs: a missing scheme means http, and
// trailing slashes are dropped.
type apiClient struct {
	base string
	http *http.Client
}

func newAPIClient(addr string) *apiClient {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	// No overall client timeout, so a watch stream runs for as long as
	// the daemon serves it; a daemon that never answers still fails.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.ResponseHeaderTimeout = apiTimeout
	return &apiClient{base: strings.TrimRight(addr, "/"), http: &http.Client{Transport: transport}}
}

// send issues method path?q with an optional JSON body.
func (c *apiClient) send(ctx context.Context, method, path string, q url.Values, body any) (*http.Response, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.http.Do(req)
}

// do runs one bounded request and returns the status code and body.
func (c *apiClient) do(method, path string, q url.Values, body any) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), apiTimeout)
	defer cancel()
	resp, err := c.send(ctx, method, path, q, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get returns the body of a 200 answer to GET path?q; any other status
// is an error naming the status and the body.
func (c *apiClient) get(path string, q url.Values) ([]byte, error) {
	code, body, err := c.do("GET", path, q, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("peering-cli: GET %s returned %d %s: %s",
			path, code, http.StatusText(code), strings.TrimSpace(string(body)))
	}
	return body, err
}

// printJSON prints a JSON view's body verbatim.
func (c *apiClient) printJSON(path string, q url.Values) error {
	body, err := c.get(path, q)
	if err == nil {
		_, err = fmt.Print(string(body))
	}
	return err
}

// stream opens GET path?q for a live tail; the caller closes the body.
func (c *apiClient) stream(path string, q url.Values) (*http.Response, error) {
	resp, err := c.send(context.Background(), "GET", path, q, nil)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("peering-cli: GET %s returned %s", path, resp.Status)
	}
	return resp, err
}
