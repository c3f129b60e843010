module idonly/benchmark

go 1.24

require idonly v0.0.0

replace idonly => ../
