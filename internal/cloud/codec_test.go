package cloud

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
)

// The codec's contract is "whatever encoding/json does". These
// references are the pre-codec implementations, kept verbatim in
// spirit: json.Unmarshal into the wire structs, then the same checks.

func refDecodeRequest(body []byte, classes []string) (*data.Dataset, error) {
	var wire predictRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	req := requestBody{images: wire.Images, width: wire.Width, height: wire.Height}
	for _, wc := range wire.Columns {
		num := make([]float64, len(wc.Num))
		for i, v := range wc.Num {
			if v == nil {
				num[i] = math.NaN()
			} else {
				num[i] = *v
			}
		}
		req.columns = append(req.columns, requestColumn{name: wc.Name, kind: wc.Kind, num: num, str: wc.Str})
	}
	ds, err := decodeRequest(req, len(classes))
	if err != nil {
		return nil, err
	}
	ds.Classes = append([]string(nil), classes...)
	return ds, nil
}

func refParseProbaResponse(body []byte) (*linalg.Matrix, error) {
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	if pr.NumClasses <= 0 {
		return nil, fmt.Errorf("%d classes", pr.NumClasses)
	}
	for i, row := range pr.Probabilities {
		if len(row) != pr.NumClasses {
			return nil, fmt.Errorf("row %d", i)
		}
	}
	out := linalg.NewMatrix(len(pr.Probabilities), pr.NumClasses)
	for i, row := range pr.Probabilities {
		copy(out.Row(i), row)
	}
	return out, nil
}

func refEncodeProbaResponse(proba *linalg.Matrix) ([]byte, error) {
	resp := predictResponse{NumClasses: proba.Cols, Probabilities: make([][]float64, proba.Rows)}
	for i := 0; i < proba.Rows; i++ {
		resp.Probabilities[i] = append([]float64(nil), proba.Row(i)...)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// sameFloats compares bit patterns, so NaN equals NaN and -0 differs
// from +0.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// datasetDiff describes the first difference between two decoded
// request datasets ("" when bit-equal).
func datasetDiff(a, b *data.Dataset) string {
	if !sameStrings(a.Classes, b.Classes) || len(a.Labels) != len(b.Labels) {
		return "classes or labels differ"
	}
	if (a.Images == nil) != (b.Images == nil) || (a.Frame == nil) != (b.Frame == nil) {
		return "kind differs"
	}
	if a.Images != nil {
		if a.Images.Width != b.Images.Width || a.Images.Height != b.Images.Height || len(a.Images.Pixels) != len(b.Images.Pixels) {
			return "image shape differs"
		}
		for i := range a.Images.Pixels {
			if !sameFloats(a.Images.Pixels[i], b.Images.Pixels[i]) {
				return fmt.Sprintf("image %d differs", i)
			}
		}
		return ""
	}
	ac, bc := a.Frame.Columns(), b.Frame.Columns()
	if len(ac) != len(bc) {
		return "column count differs"
	}
	for i := range ac {
		x, y := ac[i], bc[i]
		if x.Name != y.Name || x.Kind != y.Kind || !sameFloats(x.Num, y.Num) || !sameStrings(x.Str, y.Str) {
			return fmt.Sprintf("column %d (%q) differs", i, x.Name)
		}
	}
	return ""
}

func sameMatrix(a, b *linalg.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && sameFloats(a.Data, b.Data)
}

// requestSeeds are real request bodies — clean and corrupted income
// batches (MissingValues puts null cells on the wire) and a digits
// batch — plus hand-made bodies for every fallback trigger.
func requestSeeds(t testing.TB) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	income := datagen.Income(12, 5)
	var out [][]byte
	for _, ds := range []*data.Dataset{
		income,
		errorgen.MissingValues{}.Corrupt(income, 0.6, rng),
		errorgen.Outliers{}.Corrupt(income, 0.6, rng),
		datagen.Digits(1, 5),
	} {
		body, err := EncodeRequest(ds)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	for _, s := range []string{
		`{"columns":[{"name":"a","kind":"numeric","num":[1,null,-2.5e-3]},{"name":"b","kind":"categorical","str":["x","y","x"]}]}`,
		` { "columns" : [ { "kind" : "text" , "name" : "t" , "str" : [ "hi" ] } ] } ` + "\n",
		`{"images":[[0,0.5],[1,0.25]],"width":2,"height":1}`,
		`{"columns":[{"name":"a\u0041","kind":"text","str":["x"]}]}`,     // escape
		`{"columns":[{"name":"a","kind":"text","str":["caf\u00e9\n"]}]}`, // escape
		`{"columns":[{"name":"a","kind":"text","str":["café"]}]}`,        // non-ASCII
		`{"Columns":[{"name":"a","kind":"text","str":["x"]}]}`,           // case-variant key
		`{"columns":[{"NAME":"a","kind":"text","str":["x"]}]}`,           // case-variant key
		`{"columns":[],"columns":[{"name":"a","kind":"text","str":[]}]}`, // duplicate key
		`{"columns":[{"name":"a","name":"b","kind":"text","str":[]}]}`,   // duplicate key
		`{"columns":[{"name":"a","kind":"text","str":["x"],"extra":1}]}`, // unknown key
		`{"columns":[{"name":"a","kind":"numeric","num":[01]}]}`,         // leading zero
		`{"columns":[{"name":"a","kind":"numeric","num":[+1]}]}`,         // plus sign
		`{"columns":[{"name":"a","kind":"numeric","num":[.5]}]}`,         // bare fraction
		`{"columns":[{"name":"a","kind":"numeric","num":[0x10]}]}`,       // hex
		`{"columns":[{"name":"a","kind":"numeric","num":[1e400]}]}`,      // out of range
		`{"columns":[{"name":"a","kind":"numeric","num":[1e-400]}]}`,     // underflow
		`{"columns":[{"name":"a","kind":"numeric","num":[-0]}]}`,         // negative zero
		`{"images":[[1]],"width":1.0,"height":1}`,                        // non-integer count
		`{"images":[[1]],"width":1e0,"height":1}`,                        // non-integer count
		`{"images":[[1]],"width":99999999999999999999,"height":1}`,       // int overflow
		`{"columns":[{"name":"a","kind":"numeric","num":[1,]}]}`,         // trailing comma
		`{"columns":[{"name":"a","kind":"numeric","num":[1]}],}`,         // trailing comma
		`{"columns":[{"name":"a","kind":"numeric","num":[1]}]} x`,        // trailing bytes
		`{"columns":[{"name":"a","kind":"numeric","num":[1]}]}{}`,        // trailing value
		`{"columns":null}`,
		`{"images":[null],"width":1,"height":1}`,
		`{"images":[[null]],"width":1,"height":1}`,
		`{"columns":[{"name":"a","kind":"text","str":[null]}]}`,
		`{"columns":[{"name":"a","kind":"text","str":[]},{"name":"a","kind":"text","str":[]}]}`,
		`{"columns":[{"name":"a","kind":"text","str":["x"]},{"name":"b","kind":"text","str":[]}]}`,
		`{"columns":[{"name":"a","kind":"bogus"}]}`,
		`{}`, `null`, `[]`, ``, `{`, `{"columns":[{"name":"a","kind":"numeric","num":[1`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

func responseSeeds() [][]byte {
	var out [][]byte
	for _, s := range []string{
		`{"probabilities":[[0.25,0.75],[0.5,0.5]],"num_classes":2}` + "\n",
		`{"num_classes":3,"probabilities":[[1,0,0]]}`,
		`{"probabilities":[],"num_classes":2}`,
		`{"probabilities":[[1e-7,0.9999999]],"num_classes":2}`,
		`{"probabilities":[[0.5]],"num_classes":2}`,
		`{"probabilities":[[0.5,0.5]],"num_classes":0}`,
		`{"probabilities":[[0.5,0.5]],"num_classes":2.0}`,
		`{"probabilities":[[0.5,0.5]],"num_classes":2,"num_classes":2}`,
		`{"probabilities":[[0.5,null]],"num_classes":2}`,
		`{"probabilities":null,"num_classes":2}`,
		`{"probabilities":[null],"num_classes":2}`,
		`{"Probabilities":[[0.5,0.5]],"num_classes":2}`,
		`{"probabilities":[[0.5,0.5],],"num_classes":2}`,
		`{"probabilities":[[1e999,0]],"num_classes":2}`,
		`{"probabilities":[[0.5,0.5]],"num_classes":2} `,
		`{"probabilities":[[0.5,0.5]],"num_classes":2}x`,
		`{"probabilities":[[0.5,0.5]],"num_classes":4611686018427387904}`,
		`{"probabilities":[[0.5,0.5]],"num_classes":-2}`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

func checkDecodeRequest(t *testing.T, body []byte) {
	classes := []string{"a", "b"}
	got, gotErr := DecodeRequest(body, classes)
	want, wantErr := refDecodeRequest(body, classes)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: codec err %v, encoding/json err %v", body, gotErr, wantErr)
	}
	if gotErr == nil {
		if d := datasetDiff(got, want); d != "" {
			t.Fatalf("body %q: %s", body, d)
		}
	}
}

func checkParseProbaResponse(t *testing.T, body []byte) {
	got, n, gotErr := ParseProbaResponse(body)
	want, wantErr := refParseProbaResponse(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: codec err %v, encoding/json err %v", body, gotErr, wantErr)
	}
	if gotErr == nil && (n != want.Cols || !sameMatrix(got, want)) {
		t.Fatalf("body %q: codec %dx%d %v, encoding/json %dx%d %v", body, got.Rows, got.Cols, got.Data, want.Rows, want.Cols, want.Data)
	}
}

func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range requestSeeds(t) {
		checkDecodeRequest(t, body)
	}
}

func TestParseProbaResponseMatchesEncodingJSON(t *testing.T) {
	for _, body := range responseSeeds() {
		checkParseProbaResponse(t, body)
	}
}

// TestScannerTakesMarshalShape pins that the fast path, not the
// fallback, handles what the client and server actually send — the
// whole point of the codec.
func TestScannerTakesMarshalShape(t *testing.T) {
	for _, body := range requestSeeds(t)[:4] {
		if _, ok := scanRequest(body); !ok {
			t.Fatalf("scanner fell back on a json.Marshal request body %.80q", body)
		}
	}
	proba := linalg.FromRows([][]float64{{0.25, 0.75}, {1e-7, 1 - 1e-7}, {0, 1}})
	body, err := appendProbaResponse(nil, proba)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scanResponse(body); !ok {
		t.Fatalf("scanner fell back on a server response %q", body)
	}
	for _, body := range requestSeeds(t)[7:15] {
		if _, ok := scanRequest(body); ok {
			t.Fatalf("scanner accepted %q, which must go to encoding/json", body)
		}
	}
}

// TestServerResponseBytes pins the backend's response bytes to
// json.Encoder's over a live handler, including the 500 on a
// non-finite output.
func TestServerResponseBytes(t *testing.T) {
	for _, proba := range []*linalg.Matrix{
		linalg.FromRows([][]float64{{0.25, 0.75}, {1e-7, 0.9999999}, {1e21, -0.0}}),
		linalg.FromRows([][]float64{{math.NaN(), 1}}),
	} {
		srv := httptest.NewServer(NewServer(cannedModel{proba}).Handler())
		resp, err := http.Post(srv.URL+"/predict_proba", "application/json", bytes.NewReader([]byte(`{"images":[[0]],"width":1,"height":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		srv.Close()
		want, err := refEncodeProbaResponse(proba)
		if err != nil {
			if resp.StatusCode != http.StatusInternalServerError || got.String() != err.Error()+"\n" {
				t.Fatalf("non-finite output: status %d body %q, want 500 %q", resp.StatusCode, got.String(), err.Error())
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("status %d body %q, want %q", resp.StatusCode, got.Bytes(), want)
		}
	}
}

// cannedModel answers every batch with a fixed output matrix.
type cannedModel struct{ proba *linalg.Matrix }

func (m cannedModel) PredictProba(*data.Dataset) *linalg.Matrix { return m.proba }
func (m cannedModel) NumClasses() int                           { return m.proba.Cols }

func FuzzDecodeRequest(f *testing.F) {
	for _, body := range requestSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(checkDecodeRequest)
}

func FuzzParseProbaResponse(f *testing.F) {
	for _, body := range responseSeeds() {
		f.Add(body)
	}
	f.Fuzz(checkParseProbaResponse)
}

// FuzzEncodeProbaResponse builds an output matrix from raw float bits
// (every NaN, infinity, subnormal and signed zero is reachable) and
// requires the encoder's bytes to equal json.Encoder's.
func FuzzEncodeProbaResponse(f *testing.F) {
	seed := func(rows, cols uint8, vals ...float64) {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		f.Add(rows, cols, raw)
	}
	seed(2, 2, 0.25, 0.75, 1e-7, 1-1e-7)
	seed(1, 3, 1e21, 1e20, 9.99e-7)
	seed(1, 2, math.Copysign(0, -1), 5e-324)
	seed(1, 2, math.NaN(), 1)
	seed(1, 1, math.Inf(-1))
	seed(3, 0)
	seed(0, 4)
	f.Fuzz(func(t *testing.T, rows, cols uint8, raw []byte) {
		r, c := int(rows%16), int(cols%8)
		proba := linalg.NewMatrix(r, c)
		for i := range proba.Data {
			if len(raw) >= 8 {
				proba.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(8*i)%(len(raw)-len(raw)%8):]))
			}
		}
		got, gotErr := appendProbaResponse(nil, proba)
		want, wantErr := refEncodeProbaResponse(proba)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("codec err %v, encoding/json err %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("codec %q, encoding/json %q", got, want)
		}
	})
}
