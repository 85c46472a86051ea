// Package specargs parses the name(key=val,...) spec grammar shared by
// the capacity-schedule and workload-family registries:
//
//	step(to=8,at=1024)
//	zipf(cores=4,length=4096,s=1.3)
//
// Callers split a spec into its name and argument list with Split,
// resolve the name against their own registry, then parse the argument
// list against that registry row's accepted keys with Parse. Every error
// carries the caller's prefix, so each registry keeps its own wording.
package specargs

import (
	"fmt"
	"strconv"
	"strings"
)

// Params holds the parsed key=value pairs of a spec, by key.
type Params map[string]string

// Split splits a trimmed spec into its name and the text between its
// parentheses. A spec without "(" is all name, with an empty argument
// list. ok is false when spec has "(" but does not end in ")".
func Split(spec string) (name, arglist string, ok bool) {
	open := strings.Index(spec, "(")
	if open < 0 {
		return spec, "", true
	}
	if !strings.HasSuffix(spec, ")") {
		return "", "", false
	}
	return spec[:open], spec[open+1 : len(spec)-1], true
}

// Parse parses an argument list into Params. Pairs are separated by
// commas and trimmed of surrounding space; a blank list has no pairs.
// A pair without "=" or with an empty key, a repeated key, and keys
// outside accepted are errors. Unknown keys are reported together, in
// spec order, so the message is stable. prefix opens every error
// message, e.g. "capacity: step".
func Parse(prefix, arglist string, accepted []string) (Params, error) {
	par := Params{}
	var keys []string // spec order, so unknown-key errors are stable
	if strings.TrimSpace(arglist) != "" {
		for _, kv := range strings.Split(arglist, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || key == "" {
				return nil, fmt.Errorf("%s: bad parameter %q (want key=val)", prefix, kv)
			}
			if _, dup := par[key]; dup {
				return nil, fmt.Errorf("%s: duplicate parameter %q", prefix, key)
			}
			par[key] = val
			keys = append(keys, key)
		}
	}
	var unknown []string
	for _, key := range keys {
		found := false
		for _, k := range accepted {
			if k == key {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("%s does not accept %s (valid: %s)",
			prefix, strings.Join(unknown, ", "), strings.Join(accepted, ", "))
	}
	return par, nil
}

// Int returns key's value as an int, or def when the key is absent.
func (p Params) Int(key string, def int) (int, error) {
	v, err := p.parseInt(key, int64(def), strconv.IntSize)
	return int(v), err
}

// Int64 returns key's value as an int64, or def when the key is absent.
func (p Params) Int64(key string, def int64) (int64, error) {
	return p.parseInt(key, def, 64)
}

func (p Params) parseInt(key string, def int64, bits int) (int64, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, raw)
	}
	return v, nil
}

// Float returns key's value as a float64, or def when the key is
// absent.
func (p Params) Float(key string, def float64) (float64, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", key, raw)
	}
	return v, nil
}
