package gateway

import (
	"context"
	"errors"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Every daemon's HTTP server drops a client that has not finished its
// request header within ReadHeaderTimeout, and closes a keep-alive
// connection left idle for IdleTimeout, so stalled or abandoned
// clients cannot pin connections forever.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// ListenAndServe runs an HTTP server with graceful shutdown: on SIGINT
// or SIGTERM it stops accepting connections and drains in-flight
// requests for up to drain before exiting. It returns nil after a clean
// drain, the shutdown error when the drain deadline is exceeded, or the
// listener error if serving fails outright.
func ListenAndServe(addr string, handler http.Handler, drain time.Duration) error {
	ctx, stop := SignalContext()
	defer stop()
	return Serve(ctx, addr, handler, drain)
}

// SignalContext returns a context that SIGINT or SIGTERM cancels: the
// shutdown trigger every daemon (ppm-serve, ppm-gateway, ppm-monitor,
// ppm-aggregate) drains on, so all of them behave the same under
// orchestrator restarts.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Serve is ListenAndServe with the caller owning the shutdown trigger:
// it serves until ctx is done, then drains.
func Serve(ctx context.Context, addr string, handler http.Handler, drain time.Duration) error {
	if drain <= 0 {
		drain = 5 * time.Second
	}
	srv := &http.Server{Addr: addr, Handler: handler,
		ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			return err
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
