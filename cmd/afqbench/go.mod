module authorityflow/cmd/afqbench

go 1.22

require authorityflow v0.0.0

replace authorityflow => ../..
