module distxq/benchmark

go 1.22

require distxq v0.0.0

replace distxq => ../
