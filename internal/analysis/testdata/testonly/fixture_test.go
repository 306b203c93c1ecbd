package fixture

// useAll is test code: its references keep nothing alive.
func useAll() int {
	w := &Widget{n: OnlyTested() + TestedConst + countdown(2) + Support()}
	return w.Size()
}
