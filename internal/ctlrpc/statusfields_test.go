package ctlrpc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lightwave/internal/fleet"
)

// TestStatusFieldsReachTheWire holds every status result to one JSON key
// per Go field: each exported leaf field, through embedded subsystem
// structs and slices of structs, is set non-zero (so omitempty keeps it),
// and the marshaled object must carry exactly as many leaf keys. A field
// tagged `json:"-"` drops a key; so does an outer field that shadows an
// embedded field of the same JSON name, which encoding/json resolves
// silently by dropping the embedded one.
func TestStatusFieldsReachTheWire(t *testing.T) {
	for _, v := range []any{
		&TEStatusResult{},
		&ChaosStatusResult{},
		&SchedStatusResult{},
		&WALStatusResult{},
		&fleet.Status{},
	} {
		rv := reflect.ValueOf(v).Elem()
		t.Run(rv.Type().String(), func(t *testing.T) {
			n := 0
			fields := fillLeaves(t, rv, "", &n)
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]any
			if err := json.Unmarshal(raw, &obj); err != nil {
				t.Fatal(err)
			}
			keys := jsonLeaves(obj, "")
			if len(keys) != len(fields) {
				t.Errorf("%d leaf fields reach %d JSON keys\nfields: %v\nkeys:   %v\nwire:   %s",
					len(fields), len(keys), fields, keys, raw)
			}
		})
	}
}

// fillLeaves sets every exported leaf field under v to a non-zero value
// and returns their Go paths. Embedded structs flatten into their parent,
// as encoding/json flattens them; a slice of structs gets one element.
func fillLeaves(t *testing.T, v reflect.Value, prefix string, n *int) []string {
	t.Helper()
	var out []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		fv := v.Field(i)
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			out = append(out, fillLeaves(t, fv, prefix, n)...)
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			fv.Set(reflect.MakeSlice(f.Type, 1, 1))
			out = append(out, fillLeaves(t, fv.Index(0), prefix+f.Name+"[].", n)...)
		case f.Type.Kind() == reflect.Slice:
			fv.Set(reflect.MakeSlice(f.Type, 1, 1))
			setNonZero(t, fv.Index(0), n)
			out = append(out, prefix+f.Name)
		default:
			setNonZero(t, fv, n)
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// setNonZero gives a scalar the next distinct non-zero value.
func setNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		t.Fatalf("no non-zero value for a %s field", v.Type())
	}
}

// jsonLeaves returns the key paths of every non-object value in obj,
// descending into objects and into the first object of an array.
func jsonLeaves(obj map[string]any, prefix string) []string {
	var out []string
	for k, v := range obj {
		switch v := v.(type) {
		case map[string]any:
			out = append(out, jsonLeaves(v, prefix+k+".")...)
		case []any:
			if len(v) > 0 {
				if elem, ok := v[0].(map[string]any); ok {
					out = append(out, jsonLeaves(elem, prefix+k+"[].")...)
					continue
				}
			}
			out = append(out, prefix+k)
		default:
			out = append(out, prefix+k)
		}
	}
	slices.Sort(out)
	return out
}
