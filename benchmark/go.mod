module otif/benchmark

go 1.22

require otif v0.0.0

replace otif => ../
