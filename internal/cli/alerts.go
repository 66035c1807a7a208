package cli

// Alert wiring shared by every node: WireAlertEngine loads the rule
// file, builds the engine (plus the webhook notifier when configured),
// registers the alert metric families and hooks the engine onto a
// window source — a replica's drift timeline (WireNode) or the
// aggregator's merged fleet timeline (WireFederation).

import (
	"flag"
	"fmt"
	"log/slog"

	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
)

// AlertOptions configures WireAlertEngine.
type AlertOptions struct {
	// RulesPath is the JSON rule file (empty = alerting off).
	RulesPath string
	// WebhookURL optionally receives alert events as JSON POSTs.
	WebhookURL string
	// Notifier is an extra event consumer composed alongside the webhook
	// (typically an incident recorder's AlertNotifier, so alert fire
	// transitions auto-capture flight-recorder bundles). Optional.
	Notifier alert.Notifier
	// Registry receives ppm_alerts_total / ppm_alert_active
	// (nil = obs.Default()).
	Registry *obs.Registry
	// Logger receives the structured alert events (nil = slog.Default()).
	Logger *slog.Logger
}

// RegisterFlags installs -alert-rules and -alert-webhook on fs.
func (o *AlertOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.RulesPath, "alert-rules", "", "JSON alert rule file (empty = alerting off)")
	fs.StringVar(&o.WebhookURL, "alert-webhook", "", "webhook URL receiving alert events as JSON POSTs")
}

// WindowSource is anything that emits closed timeline windows in
// order: a replica's obs.TimeSeries or the federation aggregator's
// merged fleet timeline. The alert engine doesn't care which.
type WindowSource interface {
	OnWindowClose(func(obs.Window))
}

// WireAlertEngine attaches an alert engine to a window source. With
// an empty RulesPath it is a no-op (src may then be nil). The returned
// close function drains the webhook's delivery queue (call it on
// shutdown); it is never nil.
func WireAlertEngine(src WindowSource, opts AlertOptions) (*alert.Engine, func(), error) {
	if opts.RulesPath == "" {
		if opts.WebhookURL != "" {
			return nil, nil, fmt.Errorf("cli: -alert-webhook needs -alert-rules")
		}
		return nil, func() {}, nil
	}
	rules, err := alert.LoadRules(opts.RulesPath)
	if err != nil {
		return nil, nil, err
	}
	cfg := alert.Config{Rules: rules, Logger: opts.Logger}
	closer := func() {}
	if opts.WebhookURL != "" {
		webhook, err := alert.NewWebhook(alert.WebhookConfig{
			URL:    opts.WebhookURL,
			Logger: opts.Logger,
		})
		if err != nil {
			return nil, nil, err
		}
		cfg.Notifier = alert.Notifiers(webhook, opts.Notifier)
		closer = webhook.Close
	} else {
		cfg.Notifier = opts.Notifier
	}
	engine, err := alert.New(cfg)
	if err != nil {
		closer()
		return nil, nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	engine.RegisterMetrics(reg)
	src.OnWindowClose(engine.Evaluate)
	return engine, closer, nil
}
