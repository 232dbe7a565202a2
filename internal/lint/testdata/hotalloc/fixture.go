// Package fixture exercises hotalloc: allocating constructs in any function
// reachable from a //lint:hotpath root are flagged; cold functions, pooled
// self-appends, and free named-string conversions are not.
package fixture

import "fmt"

type ID string

// AppendEncode is the hot root; everything it reaches is checked.
//
//lint:hotpath
func AppendEncode(dst []byte, id ID) []byte {
	dst = append(dst, byte(len(id))) // self-append: reuses capacity, clean
	dst = appendID(dst, id)
	extra := make([]byte, 8)       // want `make\(.*\) allocates`
	grown := append(extra, dst...) // want `append into a different slice`
	_ = grown
	//lint:allow hotalloc — fixture: demonstrates the hot-path escape hatch
	tmp := make([]byte, 8)
	_ = tmp
	return dst
}

func appendID(dst []byte, id ID) []byte {
	name := string(id) // free: ID's underlying type is string
	raw := string(dst) // want `string\(\.\.\.\) of a byte/rune slice copies`
	_, _ = name, raw
	if len(id) == 0 {
		fail()
	}
	dst = append(dst, id...)
	return dst
}

func fail() {
	_ = fmt.Errorf("empty id") // want `fmt\.Errorf allocates`
}

// cold is not reachable from the hot root: nothing here is flagged.
func cold() []byte {
	return make([]byte, 64)
}
