package streams

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Standard processors in the spirit of the Streams framework's
// built-in processor library. All of them are available to XML flow
// definitions through RegisterStdProcessors:
//
//	<processor class="rename" from="v" to="value"/>
//	<processor class="select" keys="value,time"/>
//	<processor class="drop-missing" key="value"/>
//	<processor class="sample" every="10"/>
//	<processor class="limit" count="100"/>
//	<processor class="set" key="source" value="bus"/>
//	<processor class="count" key="n"/>

// Filter keeps only the items the predicate accepts.
func Filter(pred func(Item) bool) Processor {
	return ProcessorFunc(func(it Item) (Item, error) {
		if pred(it) {
			return it, nil
		}
		return nil, nil
	})
}

// Map transforms every item (the function may return the same item).
//
//lint:allow unusedapi standard processor of the Streams framework (Section 3)
func Map(f func(Item) Item) Processor {
	return ProcessorFunc(func(it Item) (Item, error) {
		return f(it), nil
	})
}

// Rename moves the attribute from one key to another. Items without
// the source key pass through unchanged.
func Rename(from, to string) Processor {
	return ProcessorFunc(func(it Item) (Item, error) {
		v, ok := it[from]
		if !ok {
			return it, nil
		}
		out := it.Clone()
		delete(out, from)
		out[to] = v
		return out, nil
	})
}

// Select keeps only the listed attributes.
func Select(keys ...string) Processor {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	return ProcessorFunc(func(it Item) (Item, error) {
		out := make(Item, len(want))
		for k, v := range it {
			if want[k] {
				out[k] = v
			}
		}
		return out, nil
	})
}

// DropMissing drops items lacking the attribute (a minimal data
// cleaning step; the raw Dublin feeds contain records with missing
// fields).
func DropMissing(key string) Processor {
	return Filter(func(it Item) bool {
		_, ok := it[key]
		return ok
	})
}

// SampleEvery keeps one item out of every n.
func SampleEvery(n int) Processor {
	if n < 1 {
		n = 1
	}
	var count atomic.Int64
	return ProcessorFunc(func(it Item) (Item, error) {
		if (count.Add(1)-1)%int64(n) == 0 {
			return it, nil
		}
		return nil, nil
	})
}

// LimitFirst passes the first n items and drops the rest.
func LimitFirst(n int) Processor {
	var count atomic.Int64
	return ProcessorFunc(func(it Item) (Item, error) {
		if count.Add(1) <= int64(n) {
			return it, nil
		}
		return nil, nil
	})
}

// Set assigns a constant attribute on every item.
func Set(key string, value any) Processor {
	return ProcessorFunc(func(it Item) (Item, error) {
		out := it.Clone()
		out[key] = value
		return out, nil
	})
}

// Counter counts the items flowing through and optionally stamps the
// running count onto each item under key (empty key = count only).
type Counter struct {
	key   string
	count atomic.Int64
}

// NewCounter builds a counting processor.
func NewCounter(key string) *Counter { return &Counter{key: key} }

// Process implements Processor.
func (c *Counter) Process(it Item) (Item, error) {
	n := c.count.Add(1)
	if c.key == "" {
		return it, nil
	}
	out := it.Clone()
	out[c.key] = n
	return out, nil
}

// RegisterStdProcessors adds the standard processor classes to a
// registry for use in XML flow definitions.
//
//lint:allow unusedapi the XML topology loader's standard processors (Section 3)
func RegisterStdProcessors(reg *Registry) error {
	register := func(class string, f ProcessorFactory) error {
		return reg.RegisterProcessor(class, f)
	}
	if err := register("rename", func(p map[string]string) (Processor, error) {
		if p["from"] == "" || p["to"] == "" {
			return nil, fmt.Errorf("streams: rename needs from and to")
		}
		return Rename(p["from"], p["to"]), nil
	}); err != nil {
		return err
	}
	if err := register("select", func(p map[string]string) (Processor, error) {
		if p["keys"] == "" {
			return nil, fmt.Errorf("streams: select needs keys")
		}
		return Select(splitComma(p["keys"])...), nil
	}); err != nil {
		return err
	}
	if err := register("drop-missing", func(p map[string]string) (Processor, error) {
		if p["key"] == "" {
			return nil, fmt.Errorf("streams: drop-missing needs key")
		}
		return DropMissing(p["key"]), nil
	}); err != nil {
		return err
	}
	if err := register("sample", func(p map[string]string) (Processor, error) {
		n, err := strconv.Atoi(p["every"])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("streams: sample needs every >= 1")
		}
		return SampleEvery(n), nil
	}); err != nil {
		return err
	}
	if err := register("limit", func(p map[string]string) (Processor, error) {
		n, err := strconv.Atoi(p["count"])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("streams: limit needs count >= 0")
		}
		return LimitFirst(n), nil
	}); err != nil {
		return err
	}
	if err := register("set", func(p map[string]string) (Processor, error) {
		if p["key"] == "" {
			return nil, fmt.Errorf("streams: set needs key")
		}
		return Set(p["key"], p["value"]), nil
	}); err != nil {
		return err
	}
	return register("count", func(p map[string]string) (Processor, error) {
		return NewCounter(p["key"]), nil
	})
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
