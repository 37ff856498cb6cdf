// Package a holds one declaration of each kind the gate checks.
package a

import "encoding/json"

const ReadConst = 1
const unreadConst = 2

var ReadVar = ReadConst
var unreadVar = 3

type ReadType struct{}
type unreadType int

// list names itself and has a method, but nothing else uses it.
type list struct{ next *list }

func (l *list) empty() bool { return l == nil }

// T has a field for each way of using one.
type T struct {
	Read     int
	Unread   int
	KeyOnly  int
	Assigned int
}

// Msg is encoded by encoding/json, which reads both fields by
// reflection; only the json tag says so.
type Msg struct {
	Wire   int
	Tagged int `json:"tagged"`
}

// Pair is generic: a read through Pair[int] reads the declared field.
type Pair[K comparable] struct{ Key K }

// Helper is a function: scripts/reachable.sh checks it, not the gate.
func Helper() {}

func New() *T {
	t := &T{KeyOnly: 1, Read: 2}
	t.Assigned = 3
	t.Assigned++
	return t
}

func Encode() ([]byte, error) { return json.Marshal(Msg{}) }
