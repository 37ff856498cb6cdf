package scenario

import (
	"fmt"
	"strconv"
)

// Value is one typed table value on the wire or on disk. Plain JSON
// cannot carry the distinction the text renderer depends on — every
// JSON number decodes to float64, but the renderer formats ints via %v
// and floats via strconv 'g' — so values ship with an explicit type tag
// and a strconv round-trip that preserves the exact Go type and value.
// Both the fleet cell protocol and the durable run store rely on this
// codec for their byte-identity guarantees.
type Value struct {
	// T is the type tag: "i" int, "u" uint64, "f" float64, "s" string,
	// "b" bool.
	T string `json:"t"`
	V string `json:"v"`
}

// EncodeValue encodes one table value. Types outside the table-row
// vocabulary error loudly: silently coercing them would break the
// byte-identity contract far from the cause.
func EncodeValue(v any) (Value, error) {
	switch v := v.(type) {
	case int:
		return Value{T: "i", V: strconv.Itoa(v)}, nil
	case int64:
		return Value{T: "i", V: strconv.FormatInt(v, 10)}, nil
	case uint64:
		return Value{T: "u", V: strconv.FormatUint(v, 10)}, nil
	case float64:
		// Shortest round-trip form: ParseFloat returns the identical
		// bit pattern (NaN and ±Inf included).
		return Value{T: "f", V: strconv.FormatFloat(v, 'g', -1, 64)}, nil
	case string:
		return Value{T: "s", V: v}, nil
	case bool:
		return Value{T: "b", V: strconv.FormatBool(v)}, nil
	}
	return Value{}, fmt.Errorf("scenario: cell value %v (%T) is not a table type (int/uint64/float64/string/bool)", v, v)
}

// Decode restores the exact typed value.
func (v Value) Decode() (any, error) {
	switch v.T {
	case "i":
		n, err := strconv.Atoi(v.V)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad int value %q: %v", v.V, err)
		}
		return n, nil
	case "u":
		n, err := strconv.ParseUint(v.V, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad uint value %q: %v", v.V, err)
		}
		return n, nil
	case "f":
		f, err := strconv.ParseFloat(v.V, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad float value %q: %v", v.V, err)
		}
		return f, nil
	case "s":
		return v.V, nil
	case "b":
		b, err := strconv.ParseBool(v.V)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad bool value %q: %v", v.V, err)
		}
		return b, nil
	}
	return nil, fmt.Errorf("scenario: unknown value tag %q", v.T)
}

// EncodeRow encodes one typed row (an empty row encodes to an empty,
// non-nil slice).
func EncodeRow(row []any) ([]Value, error) {
	out := make([]Value, len(row))
	for j, v := range row {
		ev, err := EncodeValue(v)
		if err != nil {
			return nil, err
		}
		out[j] = ev
	}
	return out, nil
}

// DecodeRow restores one typed row.
func DecodeRow(row []Value) ([]any, error) {
	out := make([]any, len(row))
	for j, v := range row {
		dv, err := v.Decode()
		if err != nil {
			return nil, err
		}
		out[j] = dv
	}
	return out, nil
}

// EncodeRows encodes a cell's typed rows.
func EncodeRows(rows [][]any) ([][]Value, error) {
	out := make([][]Value, len(rows))
	for i, row := range rows {
		var err error
		if out[i], err = EncodeRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeRows restores a cell's typed rows.
func DecodeRows(rows [][]Value) ([][]any, error) {
	out := make([][]any, len(rows))
	for i, row := range rows {
		var err error
		if out[i], err = DecodeRow(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}
