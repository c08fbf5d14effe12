package hotpath_test

import (
	"testing"

	"repro/internal/testutil"
	"repro/internal/vet/hotpath"
)

func TestHotpath(t *testing.T) {
	testutil.RunAnalyzer(t, hotpath.Analyzer, map[string]string{"a.go": `
package hotpathtest

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"
)

type ring struct {
	buf  []byte
	vals []float64
}

// push is the shape the real probe ring has: append into retained
// buffers is amortized and legal.
//
//gscope:hotpath
func (r *ring) push(v float64) {
	r.vals = append(r.vals, v)
	r.buf = strconv.AppendFloat(r.buf, v, 'g', -1, 64)
	r.buf = binary.AppendUvarint(r.buf, 7)
}

//gscope:hotpath
func makes() []int {
	s := make([]int, 4) // want ` + "`make allocates`" + `
	return s
}

//gscope:hotpath
func news() *ring {
	return new(ring) // want ` + "`new allocates`" + `
}

//gscope:hotpath
func sliceLit() []int {
	return []int{1, 2} // want ` + "`slice literal allocates`" + `
}

//gscope:hotpath
func escapingLit() *ring {
	return &ring{} // want ` + "`&composite literal escapes`" + `
}

//gscope:hotpath
func concat(a, b string) string {
	return a + b // want ` + "`string concatenation allocates`" + `
}

//gscope:hotpath
func boxes(v int) any {
	return v // want ` + "`int boxes into any`" + `
}

//gscope:hotpath
func stringConv(bs []byte) string {
	return string(bs) // want ` + "`conversion to string allocates`" + `
}

//gscope:hotpath
func callsFmt() {
	fmt.Sprint() // want ` + "`fmt.Sprint allocates and reflects`" + `
}

//gscope:hotpath
func callsTime() int64 {
	return time.Now().UnixNano() // want ` + "`time.Now on the hot path`" + `
}

//gscope:hotpath
func closure(n int) func() int {
	return func() int { return n } // want ` + "`closure captures \"n\"`" + `
}

//gscope:hotpath
func dyn(f func()) {
	f() // want ` + "`dynamic call through a func value`" + `
}

//gscope:hotpath
func callsCold() {
	cold() // want ` + "`call to cold, which is not marked //gscope:hotpath`" + `
}

func cold() {}

//gscope:hotpath
func callsHot(r *ring) {
	r.push(1) // marked callee: fine
}

type box[T any] struct{ vals []T }

//gscope:hotpath
func (b *box[T]) put(v T) { b.vals = append(b.vals, v) }

// callsGeneric reaches marked generic code through instantiations, which
// must resolve to the marked declarations.
//
//gscope:hotpath
func callsGeneric(b *box[int]) {
	b.put(1) // marked generic method: fine
}

//gscope:hotpath
func allowedConv(bs []byte) string {
	return string(bs) //gscope:allow hotpath fixture: cold error path // allowed ` + "`conversion to string allocates`" + `
}
`})
}
