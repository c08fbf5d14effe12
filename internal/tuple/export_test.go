package tuple

import "sync"

var (
	blockMu   sync.Mutex
	blockSink func(string)
)

// The hook is installed once, before any test runs, so decoders on other
// goroutines never race with its installation; SetBlockSink swaps the
// mutex-guarded sink behind it.
func init() {
	testHookBlock = func(block string) {
		blockMu.Lock()
		defer blockMu.Unlock()
		if blockSink != nil {
			blockSink(block)
		}
	}
}

// SetBlockSink routes every line block any StreamDecoder converts to
// sink, one call at a time, until restore is called.
func SetBlockSink(sink func(block string)) (restore func()) {
	blockMu.Lock()
	blockSink = sink
	blockMu.Unlock()
	return func() {
		blockMu.Lock()
		blockSink = nil
		blockMu.Unlock()
	}
}

// MaxCanonicalNames exports the CanonicalizeNames cap to the tests.
const MaxCanonicalNames = maxCanonicalNames
