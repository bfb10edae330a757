type elemental = Load_load | Load_store | Store_load | Store_store

let all_elementals = [ Load_load; Load_store; Store_load; Store_store ]

let elemental_name = function
  | Load_load -> "LoadLoad"
  | Load_store -> "LoadStore"
  | Store_load -> "StoreLoad"
  | Store_store -> "StoreStore"

type composite = Volatile | Acquire | Release | Load_fence | Store_fence

let elementals_of_composite = function
  | Volatile -> [ Load_load; Load_store; Store_load; Store_store ]
  | Acquire | Load_fence -> [ Load_load; Load_store ]
  | Release | Store_fence -> [ Load_store; Store_store ]
