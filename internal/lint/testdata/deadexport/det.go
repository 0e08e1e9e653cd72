// Package deadexport is the golden corpus for the deadexport analyzer:
// the corpus package is its own module here, so "referenced" means
// referenced by this file's non-test code.
package deadexport

import "fmt"

// Used has a caller below.
func Used() int { return 1 }

// Caller keeps Used alive and is itself kept alive by the package-level
// variable initializer.
func Caller() int { return Used() }

var _ = Caller()

func Unused() {} // want `\[deadexport\] exported function Unused has no non-test reference`

// Recursive only calls itself: recursion is not a caller.
func Recursive(n int) int { // want `\[deadexport\] exported function Recursive`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func unexported() {}

// Server is referenced by the constructor's signature.
type Server struct{}

// NewServer is kept alive below; its result type keeps Server alive.
func NewServer() *Server { return &Server{} }

// Serve is called on a concrete receiver.
func (s *Server) Serve() {}

// StatusContext was only ever called by tests.
func (s *Server) StatusContext() {} // want `\[deadexport\] exported method StatusContext`

func init() {
	unexported()
	NewServer().Serve()
}

// Provider is an interface the package calls through.
type Provider interface {
	Status() string
}

var registered Provider = Impl{}

// Impl is reached only through Provider: no syntactic reference names
// Impl.Status, but an interface declares the method name, so it is live.
type Impl struct{}

func (Impl) Status() string { return "ok" }

// String satisfies fmt.Stringer, declared by an import.
func (Impl) String() string { return fmt.Sprint(registered.Status()) }

// Orphan has methods but nobody ever names the type: receivers do not
// keep a type alive.
type Orphan struct{} // want `\[deadexport\] exported type Orphan`

func (Orphan) Run() {} // want `\[deadexport\] exported method Run`

// Self refers to itself inside its own declaration only.
type Self struct { // want `\[deadexport\] exported type Self`
	next *Self
}

// Kept is dead but carries a reasoned suppression.
//
//lwlint:ignore deadexport the test seam another package's tests turn
func Kept() {}
