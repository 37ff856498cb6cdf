package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	b, err := a.Encode()
	fmt.Println(a.ReadVar, a.ReadType{}, a.New().Read, a.Pair[int]{}.Key, b, err)
}
