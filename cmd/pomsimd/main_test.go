package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts checks that the server bounds header reads and
// idle keep-alive connections but never cuts a long NDJSON stream.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("localhost:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v, want none", hs.WriteTimeout, hs.ReadTimeout)
	}
	if hs.Addr != "localhost:0" || hs.Handler == nil {
		t.Errorf("server addr %q handler %v", hs.Addr, hs.Handler)
	}
}
