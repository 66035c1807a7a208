package cli

// One monitoring node: the stack every monitor-bearing daemon runs
// beside its monitor — label feedback, the incident flight recorder,
// the alert engine and the durable timeline — built from one flag set
// (NodeOptions.RegisterFlags), wired in one call (WireNode) and served
// from one route table (Node.Routes). ppm-gateway puts its proxy in
// front of the node, ppm-monitor its batch-CSV watch loop (ServeWatch).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"strings"

	"blackboxval/internal/gateway"
	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
	"blackboxval/internal/obs/incident"
	"blackboxval/internal/obs/tsdb"
)

// NodeOptions configures WireNode: one option group per component,
// each registering its own flags. WireNode fills in every group's
// Registry and Logger, the incident recorder's label store and the
// alert engine's notifier.
type NodeOptions struct {
	Labels    LabelOptions
	Incidents IncidentOptions
	Alerts    AlertOptions
	TSDB      TSDBOptions
	// Registry receives every family of the node, the monitor's
	// included (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives structured events (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs the -label-*, -incident-*, -alert-* and
// -tsdb-* flag groups on fs.
func (o *NodeOptions) RegisterFlags(fs *flag.FlagSet) {
	o.Labels.RegisterFlags(fs)
	o.Incidents.RegisterFlags(fs)
	o.Alerts.RegisterFlags(fs)
	o.TSDB.RegisterFlags(fs)
}

// RejectNodeFlags returns an error naming every monitoring-stack flag
// set on fs — the monitor settings, the node's groups and the
// alert-triggered profiler's. A process without a monitor (ppm-gateway
// without -bundle) has no drift timeline for any of them to act on, so
// setting one is a mistake, not something to ignore.
func RejectNodeFlags(fs *flag.FlagSet) error {
	stack := flag.NewFlagSet("node", flag.ContinueOnError)
	new(monitor.Config).RegisterFlags(stack)
	new(NodeOptions).RegisterFlags(stack)
	new(obs.ProfilerConfig).RegisterFlags(stack)
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if stack.Lookup(f.Name) != nil {
			set = append(set, "-"+f.Name)
		}
	})
	switch len(set) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("%s needs -bundle (no monitor, no drift timeline)", set[0])
	}
	return fmt.Errorf("%s need -bundle (no monitor, no drift timeline)", strings.Join(set, ", "))
}

// Node is the wired monitoring stack of one monitor.
type Node struct {
	Labels    *labels.Store
	Incidents *incident.Recorder
	// Alerts is nil without a rule file.
	Alerts *alert.Engine
	// TSDB is nil without a durable-store directory.
	TSDB *tsdb.DB
}

// WireNode builds the monitoring stack around mon: it registers the
// monitor's metrics, then wires the label store, the incident recorder
// (snapshotting the label store into its bundles), the alert engine
// (whose fire transitions the recorder captures) and the durable
// timeline store, in that order. The returned close function seals the
// store's active segment and drains the alert webhook queue; it is
// never nil.
func WireNode(mon *monitor.Monitor, opts NodeOptions) (*Node, func(), error) {
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	mon.RegisterMetrics(reg)

	lo := opts.Labels
	lo.Registry, lo.Logger = reg, logger
	store, err := WireLabels(mon, lo)
	if err != nil {
		return nil, nil, err
	}
	inc := opts.Incidents
	inc.Labels, inc.Registry, inc.Logger = store, reg, logger
	rec, err := WireIncidents(mon, inc)
	if err != nil {
		return nil, nil, err
	}
	ao := opts.Alerts
	ao.Notifier, ao.Registry, ao.Logger = rec.AlertNotifier(), reg, logger
	engine, closeAlerts, err := WireAlertEngine(mon.Timeline(), ao)
	if err != nil {
		return nil, nil, err
	}
	if engine != nil {
		logger.Info("alerting on", "rules", ao.RulesPath, "webhook", ao.WebhookURL)
	}
	to := opts.TSDB
	to.Registry, to.Logger = reg, logger
	db, closeTSDB, err := WireTSDB(mon.Timeline(), to)
	if err != nil {
		closeAlerts()
		return nil, nil, err
	}
	if db != nil {
		logger.Info("durable timeline on", "dir", to.Dir, "retention", to.Retention)
	}
	n := &Node{Labels: store, Incidents: rec, Alerts: engine, TSDB: db}
	return n, func() { closeTSDB(); closeAlerts() }, nil
}

// Routes returns the node's route table: inner serves everything under
// "/", and beside it the node mounts /labels*, /debug/incidents* and,
// with a durable store, prefix+"/timeline/range". prefix is where
// inner serves the monitor's dashboard ("" on ppm-monitor, "/monitor"
// behind the gateway), so the page's relative timeline/range fetch
// resolves to the store.
func (n *Node) Routes(inner http.Handler, prefix string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	labelsH, incidentsH := n.Labels.Handler(), n.Incidents.Handler()
	mux.Handle("/labels", labelsH)
	mux.Handle("/labels/", labelsH)
	mux.Handle(incident.MountPath, incidentsH)
	mux.Handle(incident.MountPath+"/", incidentsH)
	if n.TSDB != nil {
		mux.Handle(prefix+"/timeline/range", n.TSDB.RangeHandler())
	}
	return mux
}

// ServeWatch runs the ppm-monitor node until ctx is done or the watch
// loop ends on its own (MaxBatches): it loads the bundle, wires the
// node, serves the dashboard, the node's routes and the process
// telemetry on addr (no server when addr is "") and polls the watch
// directory. On shutdown it stops the watch loop, drains the server and
// then closes the node, so queued alert webhooks are delivered and the
// durable store's active segment is synced and sealed. A server that
// fails stops the watch loop too.
func ServeWatch(ctx context.Context, addr string, watch WatchOptions, node NodeOptions) error {
	if node.Logger == nil {
		node.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watch.Stop = ctx.Done()
	mon, run, err := PrepareWatch(watch)
	if err != nil {
		return err
	}
	node.Incidents.BundleDir = watch.BundleDir
	n, closeNode, err := WireNode(mon, node)
	if err != nil {
		return err
	}
	defer closeNode()

	served := make(chan error, 1)
	if addr == "" {
		served <- nil
	} else {
		mux := n.Routes(mon.Handler(), "")
		obs.Mount(mux, node.Registry, obs.DefaultTracer())
		node.Logger.Info("dashboard up",
			"dashboard", fmt.Sprintf("http://%s/", addr),
			"metrics", fmt.Sprintf("http://%s/metrics", addr))
		go func() {
			err := gateway.Serve(ctx, addr, mux, 0)
			cancel()
			served <- err
		}()
	}
	err = run()
	cancel()
	return errors.Join(err, <-served)
}
