package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestListenAndServeCtxShutsDownCleanly(t *testing.T) {
	// Reserve a free port, release it, and serve there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- listenAndServeCtx(ctx, addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		}), time.Second)
	}()

	// Wait for the server to come up, then hit it once.
	url := "http://" + addr + "/"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within the deadline")
	}
}

func TestListenAndServeCtxSurfacesListenerError(t *testing.T) {
	err := listenAndServeCtx(context.Background(), "256.0.0.1:bogus", http.NotFoundHandler(), time.Second)
	if err == nil {
		t.Fatal("invalid address should surface a listener error")
	}
}

// TestListenAndServeCtxDropsStalledHeader sends a request line and one
// header but never the blank line that ends the header block: the
// server must give up on the client after ReadHeaderTimeout and close
// the connection rather than hold it open forever.
func TestListenAndServeCtxDropsStalledHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out ReadHeaderTimeout")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- listenAndServeCtx(ctx, addr, http.NotFoundHandler(), time.Second) }()
	defer func() { cancel(); <-done }()

	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a partial header, want it closed after %v",
			time.Since(start).Round(time.Millisecond), ReadHeaderTimeout)
	}
}
