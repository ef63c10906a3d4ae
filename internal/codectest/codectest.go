// Package codectest is the shared harness for the repo's versioned
// binary codecs: the MBRS1 result-store records and the MBCP1
// checkpoint. Two checks keep a codec honest.
//
// Golden pins the encoded bytes in a committed file whose name embeds
// the codec's version constants (truth.s1v1.golden). Bytes that change
// while the version is unchanged fail the test. The -update flag only
// creates a missing golden and never rewrites one, so the only way to
// change committed bytes is to bump the version, which names a new
// file, and to delete the old golden in the same diff: a golden left
// over from another version fails the test until it is removed.
//
// Fill sets every field of a record to a non-zero value, so a round
// trip through the codec catches a field that was added to the type but
// left out of the encoder or the decoder.
package codectest

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// Golden compares got with dir/<codec>.<version>.golden and returns the
// golden bytes, which the caller decodes and re-encodes to check that
// the decoder reads everything the encoder wrote. With update set, a
// missing golden is created from got; an existing one is never touched.
func Golden(t testing.TB, dir, codec, version string, got []byte, update bool) []byte {
	t.Helper()
	name := codec + "." + version + ".golden"
	path := filepath.Join(dir, name)
	others, err := filepath.Glob(filepath.Join(dir, codec+".*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range others {
		if filepath.Base(o) != name {
			t.Errorf("stale golden %s: the %s codec is at version %s; delete the old file", o, codec, version)
		}
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("created %s", path)
		return got
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create a missing golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the %s codec's bytes changed at unchanged version %s (%s): bump the version constant, "+
			"create the new golden with -update, and delete the old one\n got: %x\nwant: %x",
			codec, version, path, got, want)
	}
	return want
}

// Fill sets every field reachable from ptr to a non-zero value: numbers
// and strings derive from the field's path (so adding a field leaves the
// others' values, and the goldens built from them, unchanged), bools are
// true, slices get two elements, and pointers are allocated. Interface
// fields, such as a result's error, stay nil: the codecs never persist
// them. An unexported field or an unsupported kind fails t, so the fill
// never silently skips part of a record.
func Fill(t testing.TB, ptr any) {
	t.Helper()
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		t.Fatalf("codectest.Fill needs a non-nil pointer, got %T", ptr)
	}
	if err := fill(v.Elem(), v.Elem().Type().Name()); err != nil {
		t.Fatal(err)
	}
}

func fill(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(1 + pathHash(path)%limit(v.Type().Bits()-1)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1 + pathHash(path)%limit(v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(pathHash(path)%(1<<20)) + 0.5)
	case reflect.String:
		v.SetString(path)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := fill(v.Index(i), path+"["+strconv.Itoa(i)+"]"); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				return errors.New("codectest: cannot fill unexported field " + path + "." + f.Name)
			}
			if err := fill(v.Field(i), path+"."+f.Name); err != nil {
				return err
			}
		}
	case reflect.Interface:
	default:
		return errors.New("codectest: cannot fill " + path + " of kind " + v.Kind().String())
	}
	return nil
}

// limit caps a filled integer at 2^20, or below the type's own range.
func limit(bits int) uint64 {
	if bits > 20 {
		bits = 20
	}
	return 1<<bits - 1
}

func pathHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}
