// Package cloud reproduces the paper's cloud-hosted black box setting
// (Section 6.3.2, Google AutoML Tables): the model lives behind a network
// service and the validation system can only exchange serving data for
// class probabilities. Server wraps any data.Model behind an HTTP JSON
// API; Client implements data.Model over that API, so predictors and
// validators can be trained against a remote model without any code
// changes.
package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"

	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/imgdata"
	"blackboxval/internal/linalg"
	"blackboxval/internal/obs"
)

// wireColumn is the JSON form of one dataframe column. Missing numeric
// cells are encoded as null (JSON has no NaN).
type wireColumn struct {
	Name string     `json:"name"`
	Kind string     `json:"kind"` // "numeric", "categorical", "text"
	Num  []*float64 `json:"num,omitempty"`
	Str  []string   `json:"str,omitempty"`
}

// predictRequest is the body of POST /predict_proba.
type predictRequest struct {
	Columns []wireColumn `json:"columns,omitempty"`
	// Images are row-major pixel vectors for image models.
	Images [][]float64 `json:"images,omitempty"`
	Width  int         `json:"width,omitempty"`
	Height int         `json:"height,omitempty"`
}

// predictResponse is the body returned by POST /predict_proba.
type predictResponse struct {
	Probabilities [][]float64 `json:"probabilities"`
	NumClasses    int         `json:"num_classes"`
}

// encodeRequest serializes the features of a dataset (never its labels:
// the cloud model must not see ground truth).
func encodeRequest(ds *data.Dataset) predictRequest {
	var req predictRequest
	if ds.Tabular() {
		for _, c := range ds.Frame.Columns() {
			wc := wireColumn{Name: c.Name}
			switch c.Kind {
			case frame.Numeric:
				wc.Kind = "numeric"
				wc.Num = make([]*float64, len(c.Num))
				for i, v := range c.Num {
					if !math.IsNaN(v) {
						v := v
						wc.Num[i] = &v
					}
				}
			case frame.Categorical:
				wc.Kind = "categorical"
				wc.Str = c.Str
			case frame.Text:
				wc.Kind = "text"
				wc.Str = c.Str
			}
			req.Columns = append(req.Columns, wc)
		}
		return req
	}
	req.Images = ds.Images.Pixels
	req.Width = ds.Images.Width
	req.Height = ds.Images.Height
	return req
}

// decodeRequest reconstructs an unlabeled dataset on the server side.
// It rejects bodies the dataframe cannot hold (duplicate column names,
// columns of unequal length) instead of letting the frame panic.
func decodeRequest(req requestBody, numClasses int) (*data.Dataset, error) {
	ds := &data.Dataset{Classes: make([]string, numClasses)}
	for i := range ds.Classes {
		ds.Classes[i] = fmt.Sprintf("class%d", i)
	}
	if len(req.images) > 0 {
		if req.width <= 0 || req.height <= 0 {
			return nil, fmt.Errorf("cloud: image request lacks dimensions")
		}
		set := imgdata.NewSet(req.width, req.height)
		for i, px := range req.images {
			if len(px) != req.width*req.height {
				return nil, fmt.Errorf("cloud: image %d has %d pixels, want %d", i, len(px), req.width*req.height)
			}
			set.Append(px)
		}
		ds.Images = set
		ds.Labels = make([]int, set.Len())
		return ds, nil
	}
	f := frame.New()
	n := -1
	for _, c := range req.columns {
		rows := len(c.str)
		if c.kind == "numeric" {
			rows = len(c.num)
		}
		if f.Column(c.name) != nil {
			return nil, fmt.Errorf("cloud: duplicate column %q", c.name)
		}
		if n >= 0 && rows != n {
			return nil, fmt.Errorf("cloud: column %q has %d rows, want %d", c.name, rows, n)
		}
		switch c.kind {
		case "numeric":
			f.AddNumeric(c.name, c.num)
		case "categorical":
			f.AddCategorical(c.name, c.str)
		case "text":
			f.AddText(c.name, c.str)
		default:
			return nil, fmt.Errorf("cloud: unknown column kind %q", c.kind)
		}
		n = rows
	}
	if n < 0 {
		return nil, fmt.Errorf("cloud: request has no columns or images")
	}
	ds.Frame = f
	ds.Labels = make([]int, n)
	return ds, nil
}

// Server exposes a data.Model over HTTP. Mount its Handler and point a
// Client at the listen address.
type Server struct {
	model data.Model
}

// NewServer wraps a trained model.
func NewServer(model data.Model) *Server { return &Server{model: model} }

// Handler returns the HTTP handler implementing the prediction API:
//
//	POST /predict_proba  body: predictRequest  ->  predictResponse
//	GET  /healthz        -> 200 ok
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict_proba", s.handlePredict)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Join a sampled trace extracted upstream (obs.TraceMiddleware):
	// the backend_predict span is what the stitched waterfall shows as
	// the model-compute hop. Untraced requests skip all of this.
	if tc, traced := obs.TraceFromContext(r.Context()); traced && tc.Sampled() {
		_, span := obs.StartSpan(r.Context(), "backend_predict")
		if id := r.Header.Get(obs.RequestIDHeader); id != "" {
			span.SetAttr("request_id", id)
		}
		defer span.End()
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := parseRequestBody(body)
	if err != nil {
		http.Error(w, "invalid JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	ds, err := decodeRequest(req, s.model.NumClasses())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	proba := s.model.PredictProba(ds)
	w.Header().Set("Content-Type", "application/json")
	// Roughly 20 bytes per probability: one allocation for typical rows.
	out, err := appendProbaResponse(make([]byte, 0, 32+20*len(proba.Data)), proba)
	if err == nil {
		_, err = w.Write(out)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Client is a data.Model backed by a remote prediction service. The
// validation system treats it exactly like a local model: the ultimate
// black box.
type Client struct {
	// BaseURL of the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the default http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives transport failures surfaced through the
	// error-less data.Model path (nil = the standard logger).
	Logger *log.Logger

	numClasses int
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// PredictProba implements data.Model by calling the remote service. Like
// any data.Model it has no error channel; transport failures are logged
// and then propagated by panicking, as a real deployment would page
// rather than silently continue. Callers that can handle errors (the
// gateway's backend path, health probes) should use PredictCtx instead.
func (c *Client) PredictProba(ds *data.Dataset) *linalg.Matrix {
	proba, err := c.Predict(ds)
	if err != nil {
		logger := c.Logger
		if logger == nil {
			logger = log.Default()
		}
		logger.Printf("cloud: prediction request to %s failed: %v", c.BaseURL, err)
		panic(fmt.Sprintf("cloud: prediction request failed: %v", err))
	}
	return proba
}

// Predict is the error-returning variant of PredictProba.
func (c *Client) Predict(ds *data.Dataset) (*linalg.Matrix, error) {
	return c.PredictCtx(context.Background(), ds)
}

// PredictCtx calls the remote service under the given context, so
// callers control per-request timeouts and cancellation. It is the
// primitive the other predict methods delegate to. A W3C trace context
// carried by ctx is propagated: sampled traces get a cloud_predict
// child span around the remote call, and the traceparent header rides
// the request so the backend's spans join the same trace.
func (c *Client) PredictCtx(ctx context.Context, ds *data.Dataset) (*linalg.Matrix, error) {
	tc, traced := obs.TraceFromContext(ctx)
	if traced && tc.Sampled() {
		spanCtx, span := obs.StartSpan(ctx, "cloud_predict")
		span.SetMetric("rows", float64(ds.Len()))
		defer span.End()
		ctx = spanCtx
		tc = span.TraceContext()
	}
	payload, err := json.Marshal(encodeRequest(ds))
	if err != nil {
		return nil, fmt.Errorf("cloud: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/predict_proba", bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("cloud: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: calling service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cloud: service returned %s: %s", resp.Status, msg)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cloud: reading response: %w", err)
	}
	out, numClasses, err := ParseProbaResponse(body)
	if err != nil {
		return nil, err
	}
	c.numClasses = numClasses
	return out, nil
}

// EncodeRequest serializes a dataset's features (never its labels) as a
// /predict_proba request body, for callers that speak the wire format
// directly — e.g. traffic generators driving the gateway.
func EncodeRequest(ds *data.Dataset) ([]byte, error) {
	payload, err := json.Marshal(encodeRequest(ds))
	if err != nil {
		return nil, fmt.Errorf("cloud: encoding request: %w", err)
	}
	return payload, nil
}

// DecodeRequest reconstructs the unlabeled serving rows from a raw
// /predict_proba request body. classes names the model's classes (the
// decoded dataset needs a class list; pass the manifest's). It is
// exported so the shadow-validation gateway can recover the raw
// feature columns of a tapped request for incident forensics without
// re-implementing the wire schema.
func DecodeRequest(body []byte, classes []string) (*data.Dataset, error) {
	req, err := parseRequestBody(body)
	if err != nil {
		return nil, fmt.Errorf("cloud: decoding request: %w", err)
	}
	ds, err := decodeRequest(req, len(classes))
	if err != nil {
		return nil, err
	}
	ds.Classes = append([]string(nil), classes...)
	return ds, nil
}

// ParseProbaResponse decodes the JSON body of a /predict_proba response
// into a probability matrix. It is exported so serving-path components
// (e.g. the shadow-validation gateway) can tap logged response bodies
// without re-implementing the wire schema.
func ParseProbaResponse(body []byte) (proba *linalg.Matrix, numClasses int, err error) {
	pb, err := parseProbaBody(body)
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: decoding response: %w", err)
	}
	if proba, err = pb.matrix(); err != nil {
		return nil, 0, err
	}
	return proba, proba.Cols, nil
}

// NumClasses implements data.Model. It is learned from the first
// response; call Predict once (e.g. via a health probe batch) before
// relying on it.
func (c *Client) NumClasses() int { return c.numClasses }
