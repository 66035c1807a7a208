package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unsafe"

	"blackboxval/internal/linalg"
)

// The /predict_proba codec. Every request body the backend serves, and
// every request and response body the shadow tap reads, passes through
// here once, so the common case is a single pass over the bytes with
// no reflection:
//
//   - scanRequest and scanResponse accept exactly the shape json.Marshal
//     emits for predictRequest and predictResponse (any key order and
//     whitespace, plain ASCII strings, numbers in the JSON grammar) and
//     report ok=false for anything else: escaped or non-ASCII strings,
//     case-variant, duplicate or unknown keys, null where json.Marshal
//     never writes one, numbers outside the grammar or out of range,
//     non-integer counts, trailing commas or trailing bytes. Those
//     bodies are decoded whole by encoding/json, which decides the
//     result — so accept/reject and the decoded values are those of
//     encoding/json for every input.
//   - appendProbaResponse writes the bytes json.NewEncoder(w).Encode
//     writes for a predictResponse.
//
// Floats are parsed with strconv.ParseFloat, as encoding/json does.

// requestBody is a decoded /predict_proba request: predictRequest with
// numeric cells already resolved (null = NaN). Both decoders produce it
// and decodeRequest checks it.
type requestBody struct {
	columns       []requestColumn
	images        [][]float64
	width, height int
}

type requestColumn struct {
	name, kind string
	num        []float64
	str        []string
}

// parseRequestBody decodes a request body with the single-pass scanner,
// handing anything unusual to encoding/json.
func parseRequestBody(body []byte) (requestBody, error) {
	if req, ok := scanRequest(body); ok {
		return req, nil
	}
	var wire predictRequest
	if err := json.Unmarshal(body, &wire); err != nil {
		return requestBody{}, err
	}
	req := requestBody{images: wire.Images, width: wire.Width, height: wire.Height}
	for _, wc := range wire.Columns {
		col := requestColumn{name: wc.Name, kind: wc.Kind, num: make([]float64, len(wc.Num)), str: wc.Str}
		for i, v := range wc.Num {
			if v == nil {
				col.num[i] = math.NaN()
			} else {
				col.num[i] = *v
			}
		}
		req.columns = append(req.columns, col)
	}
	return req, nil
}

// probaBody is a decoded /predict_proba response: every row's
// probabilities back to back, plus each row's length.
type probaBody struct {
	data       []float64
	rowLens    []int
	numClasses int
}

// parseProbaBody decodes a response body with the single-pass scanner,
// handing anything unusual to encoding/json.
func parseProbaBody(body []byte) (probaBody, error) {
	if pb, ok := scanResponse(body); ok {
		return pb, nil
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return probaBody{}, err
	}
	pb := probaBody{numClasses: pr.NumClasses, rowLens: make([]int, len(pr.Probabilities))}
	for i, row := range pr.Probabilities {
		pb.rowLens[i] = len(row)
		pb.data = append(pb.data, row...)
	}
	return pb, nil
}

// matrix checks the decoded response and returns its probabilities.
// Row lengths are checked before anything is sized by numClasses, so a
// hostile class count cannot force a huge allocation.
func (pb probaBody) matrix() (*linalg.Matrix, error) {
	if pb.numClasses <= 0 {
		return nil, fmt.Errorf("cloud: response reports %d classes", pb.numClasses)
	}
	for i, n := range pb.rowLens {
		if n != pb.numClasses {
			return nil, fmt.Errorf("cloud: row %d has %d probabilities, want %d", i, n, pb.numClasses)
		}
	}
	return &linalg.Matrix{Rows: len(pb.rowLens), Cols: pb.numClasses, Data: pb.data}, nil
}

// appendProbaResponse appends the response body for proba to dst: the
// bytes json.NewEncoder(w).Encode writes for the predictResponse the
// server used to build, trailing newline included. A non-finite output
// yields encoding/json's UnsupportedValueError.
func appendProbaResponse(dst []byte, proba *linalg.Matrix) ([]byte, error) {
	dst = append(dst, `{"probabilities":[`...)
	for i := 0; i < proba.Rows; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if proba.Cols == 0 {
			dst = append(dst, "null"...) // a nil row slice
			continue
		}
		dst = append(dst, '[')
		for j, f := range proba.Row(i) {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"num_classes":`...)
	dst = strconv.AppendInt(dst, int64(proba.Cols), 10)
	return append(dst, "}\n"...), nil
}

// appendJSONFloat formats a finite float64 the way encoding/json does:
// like ES6 number-to-string, 'f' unless the magnitude is below 1e-6 or
// at least 1e21, with exponents not padded to two digits.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// scanRequest is the fast path of parseRequestBody.
func scanRequest(body []byte) (req requestBody, ok bool) {
	s := scanner{buf: body}
	var seen keySet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "columns":
			return seen.first(0) && s.array(func() bool {
				col, ok := s.column()
				req.columns = append(req.columns, col)
				return ok
			})
		case "images":
			return seen.first(1) && s.array(func() bool {
				row, ok := s.numbers(false)
				req.images = append(req.images, row)
				return ok
			})
		case "width":
			return seen.first(2) && s.int(&req.width)
		case "height":
			return seen.first(3) && s.int(&req.height)
		}
		return false
	})
	return req, ok && s.end()
}

// column scans one wireColumn object.
func (s *scanner) column() (col requestColumn, ok bool) {
	var seen keySet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return seen.first(0) && s.string(&col.name, false)
		case "kind":
			return seen.first(1) && s.string(&col.kind, true)
		case "num":
			if !seen.first(2) {
				return false
			}
			num, ok := s.numbers(true)
			col.num = num
			return ok
		case "str":
			// Categorical values repeat across rows: intern them. The
			// kind precedes str in json.Marshal's field order.
			intern := col.kind == "categorical"
			col.str = []string{} // [] decodes to an empty, non-nil slice
			return seen.first(3) && s.array(func() bool {
				var v string
				ok := s.string(&v, intern)
				col.str = append(col.str, v)
				return ok
			})
		}
		return false
	})
	return col, ok
}

// scanResponse is the fast path of parseProbaBody.
func scanResponse(body []byte) (pb probaBody, ok bool) {
	s := scanner{buf: body}
	var seen keySet
	// Numbers are comma-separated, so this bounds their count.
	pb.data = make([]float64, 0, bytes.Count(body, []byte{','})+1)
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "probabilities":
			return seen.first(0) && s.array(func() bool {
				n := len(pb.data)
				if !s.appendNumbers(&pb.data, false) {
					return false
				}
				pb.rowLens = append(pb.rowLens, len(pb.data)-n)
				return true
			})
		case "num_classes":
			return seen.first(1) && s.int(&pb.numClasses)
		}
		return false
	})
	return pb, ok && s.end()
}

// keySet records which of an object's known keys were seen, so a
// duplicate key falls back to encoding/json.
type keySet uint8

func (k *keySet) first(bit uint) bool {
	if *k&(1<<bit) != 0 {
		return false
	}
	*k |= 1 << bit
	return true
}

// scanner is a strict JSON reader over one body. Every method reports
// false on input outside the subset the fast path accepts; the caller
// then abandons the scan.
type scanner struct {
	buf     []byte
	pos     int
	scratch []float64
	interns map[string]string
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c if it comes next.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.pos == len(s.buf)
}

// object scans {"key": value, ...}; field must scan the value of key.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.rawString()
		if !ok || !s.consume(':') || !field(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array scans [elem, ...]; elem must scan one element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// rawString scans a string of printable ASCII without escapes and
// returns its bytes (aliasing the body).
func (s *scanner) rawString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			str := s.buf[s.pos:i]
			s.pos = i + 1
			return str, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// string scans a string into *dst, sharing one copy per distinct value
// across the body when intern is set.
func (s *scanner) string(dst *string, intern bool) bool {
	raw, ok := s.rawString()
	if !ok {
		return false
	}
	if !intern {
		*dst = string(raw)
		return true
	}
	if v, hit := s.interns[string(raw)]; hit {
		*dst = v
		return true
	}
	if s.interns == nil {
		s.interns = make(map[string]string)
	}
	v := string(raw)
	s.interns[v] = v
	*dst = v
	return true
}

// number scans a token in the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// is an integer literal (no fraction or exponent).
func (s *scanner) number() (tok []byte, integer, ok bool) {
	s.skipSpace()
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			return nil, false, false
		}
	}
	tok = b[s.pos:i]
	s.pos = i
	return tok, integer, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float scans a number that strconv.ParseFloat accepts in range.
func (s *scanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	// The token is only read for the duration of the call; an error
	// (out of range) abandons the scan, so nothing retains it.
	v, err := strconv.ParseFloat(unsafe.String(unsafe.SliceData(tok), len(tok)), 64)
	return v, err == nil
}

// int scans an integer literal that fits an int.
func (s *scanner) int(dst *int) bool {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(unsafe.String(unsafe.SliceData(tok), len(tok)), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

// appendNumbers scans an array of numbers onto *dst; with nullNaN, a
// null element decodes as NaN (a nil *float64 cell).
func (s *scanner) appendNumbers(dst *[]float64, nullNaN bool) bool {
	return s.array(func() bool {
		if nullNaN && s.null() {
			*dst = append(*dst, math.NaN())
			return true
		}
		v, ok := s.float()
		*dst = append(*dst, v)
		return ok
	})
}

// numbers is appendNumbers into an exactly sized new slice.
func (s *scanner) numbers(nullNaN bool) ([]float64, bool) {
	s.scratch = s.scratch[:0]
	if !s.appendNumbers(&s.scratch, nullNaN) {
		return nil, false
	}
	return append(make([]float64, 0, len(s.scratch)), s.scratch...), true
}

// null scans the literal null.
func (s *scanner) null() bool {
	s.skipSpace()
	if len(s.buf)-s.pos >= 4 && string(s.buf[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}
