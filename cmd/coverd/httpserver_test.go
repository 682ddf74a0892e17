package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins coverd's HTTP server timeouts: a bounded
// header read, an idle timeout longer than net/http's client-side idle
// timeout, and no whole-request deadlines.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
	clientIdle := http.DefaultTransport.(*http.Transport).IdleConnTimeout
	if srv.IdleTimeout <= clientIdle {
		t.Errorf("IdleTimeout %v must exceed the client-side IdleConnTimeout %v", srv.IdleTimeout, clientIdle)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want unset: solves and bodies may be slow",
			srv.ReadTimeout, srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Error("handler not installed")
	}
}
