//! Panic-reach call-shape fixture: each `unwrap` in `Cache` is
//! reachable from `run_sweep` through one call shape only, and each is
//! flagged. `Other::helper` shares its name with the free `helper` the
//! root calls bare, so it stays outside the cone.
struct Cache;

struct Other;

trait Codec {
    fn decode(x: u8) -> u8;
}

impl Codec for Cache {
    fn decode(x: u8) -> u8 {
        Some(x).unwrap() // via `Codec::decode(a)`
    }
}

impl Cache {
    fn get(&self) -> u8 {
        Some(1).unwrap() // via `cache.get()`
    }

    fn build() -> Cache {
        Some(Cache).unwrap() // via `Cache::build()`
    }

    fn init() -> u8 {
        Some(2).unwrap() // via the reference `Cache::init`
    }
}

impl Other {
    fn helper() -> u8 {
        None.unwrap()
    }
}

fn helper() -> u8 {
    0
}

fn run_sweep(cell: &OnceCell<u8>) -> u8 {
    let cache = Cache::build();
    let a = cache.get();
    let b = Codec::decode(a);
    let c = *cell.get_or_init(Cache::init);
    a + b + c + helper()
}
