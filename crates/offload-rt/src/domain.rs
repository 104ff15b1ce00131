//! Virtual method dispatch across memory spaces (paper Figure 3).
//!
//! On a single-memory-space machine, `obj->f(...)` is one vtable load
//! plus an indirect call. With accelerator cores whose instruction sets
//! differ from the host's, a single vtable cannot work: the accelerator
//! needs *its own compiled copy* of each method it may call, and — since
//! overloads are duplicated per combination of pointer memory spaces —
//! possibly several copies. Offload C++ solves this with *dispatch
//! domains*:
//!
//! 1. the programmer annotates an offload block with the methods that
//!    may be called virtually inside it (the *domain*),
//! 2. after the normal vtable lookup produces a host function address,
//!    the runtime searches the **outer domain** (an array of known host
//!    addresses) to learn whether the routine exists in local store,
//! 3. the matching index selects an **inner domain** entry: a sequence
//!    of `(duplicate id, local address)` pairs, one per memory-space
//!    signature that was actually compiled,
//! 4. a miss raises an informative exception telling the programmer
//!    which method annotation is missing.
//!
//! This module implements that machinery: [`ClassRegistry`] (classes +
//! vtables), [`Domain`] (outer/inner domains with per-entry search
//! costs), [`MethodTable`] (the behaviours behind function addresses),
//! and the full [`accel_virtual_dispatch`] / [`host_virtual_dispatch`]
//! flows with cycle charging.

use std::collections::HashMap;
use std::fmt;

use memspace::Addr;
use simcell::{AccelCtx, CostModel, DispatchFault, Machine, SimError};

/// The address of a compiled function (host or local ISA).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FnAddr(pub u32);

impl fmt::Display for FnAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn@{:#x}", self.0)
    }
}

/// A registered class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClassId(pub u32);

/// A virtual method slot within a vtable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MethodSlot(pub u16);

/// A memory-space signature of a function duplicate.
///
/// Offload C++ duplicates each function per combination of pointer
/// memory spaces in its signature; the duplicate id is "compiler
/// generated meta-data to identify the signature of the routine with
/// respect to combinations of memory spaces". Here, bit *i* is set when
/// pointer parameter *i* is an **outer** pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DuplicateId(pub u16);

impl DuplicateId {
    /// The signature with every pointer parameter local.
    pub const ALL_LOCAL: DuplicateId = DuplicateId(0);

    /// Builds a duplicate id from per-parameter outer-ness flags.
    ///
    /// # Example
    ///
    /// ```
    /// use offload_rt::DuplicateId;
    ///
    /// // (local, outer, local) pointer parameters.
    /// let id = DuplicateId::from_outer_flags(&[false, true, false]);
    /// assert_eq!(id, DuplicateId(0b010));
    /// ```
    pub fn from_outer_flags(outer: &[bool]) -> DuplicateId {
        let mut bits = 0u16;
        for (i, &is_outer) in outer.iter().enumerate() {
            if is_outer {
                bits |= 1 << i;
            }
        }
        DuplicateId(bits)
    }
}

impl fmt::Display for DuplicateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dup{:#b}", self.0)
    }
}

/// Classes, inheritance and vtables — the host-side dispatch structures.
///
/// Objects in simulated memory carry their class id as a `u32` header at
/// offset 0 (the "vtable pointer" of this model).
#[derive(Debug, Default)]
pub struct ClassRegistry {
    names: Vec<String>,
    vtables: Vec<Vec<Option<FnAddr>>>,
    method_names: HashMap<FnAddr, String>,
    next_fn: u32,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Allocates a fresh function address (simulating the linker).
    pub fn fresh_fn(&mut self, name: impl Into<String>) -> FnAddr {
        self.next_fn += 0x20;
        let addr = FnAddr(0x1000 + self.next_fn);
        self.method_names.insert(addr, name.into());
        addr
    }

    /// The human-readable name attached to a function address.
    pub fn fn_name(&self, addr: FnAddr) -> Option<&str> {
        self.method_names.get(&addr).map(String::as_str)
    }

    /// Registers a class; with a parent, the vtable is inherited.
    pub fn register_class(&mut self, name: impl Into<String>, parent: Option<ClassId>) -> ClassId {
        let vtable = match parent {
            Some(p) => self.vtables[p.0 as usize].clone(),
            None => Vec::new(),
        };
        self.names.push(name.into());
        self.vtables.push(vtable);
        ClassId(u32::try_from(self.names.len() - 1).expect("class ids are u32"))
    }

    /// Defines (or overrides) the method in `slot` for `class`.
    pub fn define_method(&mut self, class: ClassId, slot: MethodSlot, addr: FnAddr) {
        let vtable = &mut self.vtables[class.0 as usize];
        if vtable.len() <= usize::from(slot.0) {
            vtable.resize(usize::from(slot.0) + 1, None);
        }
        vtable[usize::from(slot.0)] = Some(addr);
    }

    /// Looks up the implementation of `slot` for `class` (the vtable
    /// load).
    pub fn resolve(&self, class: ClassId, slot: MethodSlot) -> Option<FnAddr> {
        self.vtables
            .get(class.0 as usize)?
            .get(usize::from(slot.0))
            .copied()
            .flatten()
    }

    /// The name of a class.
    pub fn class_name(&self, class: ClassId) -> Option<&str> {
        self.names.get(class.0 as usize).map(String::as_str)
    }

    /// Number of registered classes.
    pub fn class_count(&self) -> usize {
        self.names.len()
    }

    /// Whether `class` is a valid id.
    pub fn is_class(&self, class: ClassId) -> bool {
        (class.0 as usize) < self.names.len()
    }
}

/// The cost breakdown of one domain lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupCost {
    /// Outer-domain entries examined.
    pub outer_probes: u32,
    /// Inner-domain entries examined.
    pub inner_probes: u32,
}

impl LookupCost {
    /// Cycles this lookup costs under `cost`.
    pub fn cycles(&self, cost: &CostModel) -> u64 {
        cost.domain_lookup_base
            + cost.domain_outer_entry * u64::from(self.outer_probes)
            + cost.domain_inner_entry * u64::from(self.inner_probes)
    }
}

/// The outer/inner dispatch domain of one offload block (Figure 3).
#[derive(Clone, Debug, Default)]
pub struct Domain {
    outer: Vec<FnAddr>,
    inner: Vec<Vec<(DuplicateId, FnAddr)>>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Domain {
        Domain::default()
    }

    /// Adds a function to the domain with the given compiled duplicates
    /// ("overloads may be selectively compiled, so there is no guarantee
    /// that a full set is present").
    pub fn add(&mut self, global: FnAddr, duplicates: &[(DuplicateId, FnAddr)]) {
        if let Some(i) = self.outer.iter().position(|&f| f == global) {
            self.inner[i].extend_from_slice(duplicates);
        } else {
            self.outer.push(global);
            self.inner.push(duplicates.to_vec());
        }
    }

    /// Number of functions in the outer domain — the "annotation count"
    /// of the offload block (experiment E4's restructuring metric).
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// Total number of compiled duplicates across all entries.
    pub fn duplicate_count(&self) -> usize {
        self.inner.iter().map(Vec::len).sum()
    }

    /// Resolves `target` with memory-space signature `duplicate`.
    ///
    /// Performs the two-stage search of Figure 3: a linear scan of the
    /// outer domain, then a linear scan of the matched inner-domain
    /// entry. Returns the local function address and the probe counts
    /// (for cycle charging).
    ///
    /// # Errors
    ///
    /// Returns the informative [`DispatchFault::DomainMiss`] (the
    /// paper's "exception providing information which the programmer
    /// can use") when the function or the required duplicate was not
    /// pre-compiled.
    pub fn lookup(
        &self,
        target: FnAddr,
        duplicate: DuplicateId,
    ) -> Result<(FnAddr, LookupCost), SimError> {
        for (i, &entry) in self.outer.iter().enumerate() {
            if entry == target {
                // Probe counts saturate; no table nears 2^32 entries.
                let outer_probes = u32::try_from(i + 1).unwrap_or(u32::MAX);
                for (j, &(dup, local)) in self.inner[i].iter().enumerate() {
                    if dup == duplicate {
                        return Ok((
                            local,
                            LookupCost {
                                outer_probes,
                                inner_probes: u32::try_from(j + 1).unwrap_or(u32::MAX),
                            },
                        ));
                    }
                }
                return Err(DispatchFault::DomainMiss {
                    target: target.0,
                    duplicate: duplicate.0,
                    outer_matched: true,
                    outer_searched: outer_probes,
                    method_name: None,
                }
                .into());
            }
        }
        Err(DispatchFault::DomainMiss {
            target: target.0,
            duplicate: duplicate.0,
            outer_matched: false,
            outer_searched: u32::try_from(self.outer.len()).unwrap_or(u32::MAX),
            method_name: None,
        }
        .into())
    }
}

/// Behaviours behind function addresses, generic in the callable type so
/// host- and accelerator-side tables can use different context types.
#[derive(Default)]
pub struct MethodTable<F> {
    impls: HashMap<u32, F>,
}

impl<F> MethodTable<F> {
    /// Creates an empty table.
    pub fn new() -> MethodTable<F> {
        MethodTable {
            impls: HashMap::new(),
        }
    }

    /// Registers the behaviour of `addr`, replacing any previous one.
    pub fn register(&mut self, addr: FnAddr, behaviour: F) {
        self.impls.insert(addr.0, behaviour);
    }

    /// The behaviour of `addr`, if registered.
    pub fn get(&self, addr: FnAddr) -> Option<&F> {
        self.impls.get(&addr.0)
    }

    /// Number of registered behaviours.
    pub fn len(&self) -> usize {
        self.impls.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.impls.is_empty()
    }
}

impl<F> fmt::Debug for MethodTable<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodTable")
            .field("len", &self.impls.len())
            .finish()
    }
}

/// Performs a full accelerator-side virtual dispatch of `obj`'s method
/// in `slot`, returning the *local* function address to call.
///
/// Charges, in order: the object-header read (a local access if `obj`
/// is in this accelerator's local store, otherwise a synchronous DMA
/// round trip — the hidden cost the paper warns about for unprefetched
/// objects), the vtable lookup, and the two-stage domain search.
///
/// # Errors
///
/// Propagates header-read failures, unknown classes/slots, and
/// [`DispatchFault::DomainMiss`] (with the method name filled in when
/// the registry knows it).
pub fn accel_virtual_dispatch(
    ctx: &mut AccelCtx<'_>,
    registry: &ClassRegistry,
    domain: &Domain,
    obj: Addr,
    slot: MethodSlot,
    duplicate: DuplicateId,
) -> Result<FnAddr, SimError> {
    let raw: u32 = if obj.space() == ctx.local_space() {
        ctx.local_read_pod(obj)?
    } else {
        ctx.outer_read_pod(obj)?
    };
    let class = ClassId(raw);
    if !registry.is_class(class) {
        return Err(DispatchFault::UnknownClass { raw }.into());
    }
    let vcall = ctx.cost().vcall;
    ctx.compute(vcall);
    let target =
        registry
            .resolve(class, slot)
            .ok_or(SimError::Dispatch(DispatchFault::NoSuchMethod {
                class: class.0,
                slot: slot.0,
            }))?;
    match domain.lookup(target, duplicate) {
        Ok((local, lookup)) => {
            let cycles = lookup.cycles(ctx.cost());
            ctx.compute(cycles);
            Ok(local)
        }
        Err(mut err) => {
            if let SimError::Dispatch(DispatchFault::DomainMiss { method_name, .. }) = &mut err {
                *method_name = registry.fn_name(target).map(str::to_owned);
            }
            Err(err)
        }
    }
}

/// Performs a host-side virtual dispatch: header read + vtable lookup,
/// no domain involved (the host runs the one true host ISA).
///
/// # Errors
///
/// Propagates header-read failures and unknown classes/slots.
pub fn host_virtual_dispatch(
    machine: &mut Machine,
    registry: &ClassRegistry,
    obj: Addr,
    slot: MethodSlot,
) -> Result<FnAddr, SimError> {
    let raw: u32 = machine.host_read_pod(obj)?;
    let class = ClassId(raw);
    if !registry.is_class(class) {
        return Err(DispatchFault::UnknownClass { raw }.into());
    }
    machine.host_compute(machine.cost().vcall);
    registry
        .resolve(class, slot)
        .ok_or(SimError::Dispatch(DispatchFault::NoSuchMethod {
            class: class.0,
            slot: slot.0,
        }))
}

/// Reads the class id header of an object on the host (cost-free setup
/// helper; the object layout convention is a `u32` class id at offset 0).
///
/// # Errors
///
/// Fails on bounds violations.
pub fn class_of(machine: &Machine, obj: Addr) -> Result<ClassId, SimError> {
    Ok(ClassId(machine.main().read_pod::<u32>(obj)?))
}

/// Writes the class id header of an object (cost-free setup helper).
///
/// # Errors
///
/// Fails on bounds violations.
pub fn set_class(machine: &mut Machine, obj: Addr, class: ClassId) -> Result<(), SimError> {
    Ok(machine.main_mut().write_pod(obj, &class.0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcell::MachineConfig;

    fn registry_with_hierarchy() -> (ClassRegistry, ClassId, ClassId, FnAddr, FnAddr) {
        let mut reg = ClassRegistry::new();
        let base_update = reg.fresh_fn("Entity::update");
        let enemy_update = reg.fresh_fn("Enemy::update");
        let entity = reg.register_class("Entity", None);
        reg.define_method(entity, MethodSlot(0), base_update);
        let enemy = reg.register_class("Enemy", Some(entity));
        reg.define_method(enemy, MethodSlot(0), enemy_update);
        (reg, entity, enemy, base_update, enemy_update)
    }

    #[test]
    fn vtable_inheritance_and_override() {
        let (reg, entity, enemy, base_update, enemy_update) = registry_with_hierarchy();
        assert_eq!(reg.resolve(entity, MethodSlot(0)), Some(base_update));
        assert_eq!(reg.resolve(enemy, MethodSlot(0)), Some(enemy_update));
        assert_eq!(reg.resolve(enemy, MethodSlot(1)), None);
        assert_eq!(reg.class_name(enemy), Some("Enemy"));
        assert_eq!(reg.fn_name(base_update), Some("Entity::update"));
        assert_eq!(reg.class_count(), 2);
    }

    #[test]
    fn subclass_inherits_unoverridden_methods() {
        let mut reg = ClassRegistry::new();
        let f = reg.fresh_fn("Base::f");
        let base = reg.register_class("Base", None);
        reg.define_method(base, MethodSlot(3), f);
        let derived = reg.register_class("Derived", Some(base));
        assert_eq!(reg.resolve(derived, MethodSlot(3)), Some(f));
    }

    #[test]
    fn domain_lookup_two_stage_costs() {
        let mut domain = Domain::new();
        let f1 = FnAddr(0x100);
        let f2 = FnAddr(0x200);
        let l1 = FnAddr(0x9000);
        let l2a = FnAddr(0x9100);
        let l2b = FnAddr(0x9200);
        domain.add(f1, &[(DuplicateId::ALL_LOCAL, l1)]);
        domain.add(f2, &[(DuplicateId(0b01), l2a), (DuplicateId(0b11), l2b)]);

        let (local, cost) = domain.lookup(f1, DuplicateId::ALL_LOCAL).unwrap();
        assert_eq!(local, l1);
        assert_eq!(
            cost,
            LookupCost {
                outer_probes: 1,
                inner_probes: 1
            }
        );

        let (local, cost) = domain.lookup(f2, DuplicateId(0b11)).unwrap();
        assert_eq!(local, l2b);
        assert_eq!(
            cost,
            LookupCost {
                outer_probes: 2,
                inner_probes: 2
            }
        );

        let model = CostModel::cell_like();
        assert_eq!(
            cost.cycles(&model),
            model.domain_lookup_base + 2 * model.domain_outer_entry + 2 * model.domain_inner_entry
        );
    }

    #[test]
    fn miss_when_function_not_in_domain() {
        let domain = Domain::new();
        let err = domain
            .lookup(FnAddr(0x42), DuplicateId::ALL_LOCAL)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Dispatch(DispatchFault::DomainMiss {
                outer_matched: false,
                ..
            })
        ));
        assert!(err.to_string().contains("not in the offload's domain"));
    }

    #[test]
    fn miss_when_duplicate_not_compiled() {
        let mut domain = Domain::new();
        let f = FnAddr(0x100);
        domain.add(f, &[(DuplicateId(0b01), FnAddr(0x9000))]);
        let err = domain.lookup(f, DuplicateId(0b10)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Dispatch(DispatchFault::DomainMiss {
                outer_matched: true,
                ..
            })
        ));
        let text = err.to_string();
        assert!(text.contains("no duplicate"));
        assert!(text.contains("dup0b10"));
    }

    #[test]
    fn adding_duplicates_to_existing_entry_merges() {
        let mut domain = Domain::new();
        let f = FnAddr(0x100);
        domain.add(f, &[(DuplicateId(0), FnAddr(0x9000))]);
        domain.add(f, &[(DuplicateId(1), FnAddr(0x9100))]);
        assert_eq!(domain.len(), 1);
        assert_eq!(domain.duplicate_count(), 2);
        assert!(domain.lookup(f, DuplicateId(1)).is_ok());
    }

    #[test]
    fn duplicate_id_from_flags() {
        assert_eq!(DuplicateId::from_outer_flags(&[]), DuplicateId::ALL_LOCAL);
        assert_eq!(
            DuplicateId::from_outer_flags(&[true, false, true]),
            DuplicateId(0b101)
        );
    }

    #[test]
    fn accel_dispatch_full_flow() {
        let (mut reg, _, enemy, _, enemy_update) = registry_with_hierarchy();
        let local_impl = reg.fresh_fn("Enemy::update [local]");
        let mut domain = Domain::new();
        domain.add(enemy_update, &[(DuplicateId::ALL_LOCAL, local_impl)]);

        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let obj = m.alloc_main(64, 16).unwrap();
        m.main_mut().write_pod(obj, &enemy.0).unwrap();

        let resolved = m
            .offload(0)
            .run(|ctx| {
                accel_virtual_dispatch(
                    ctx,
                    &reg,
                    &domain,
                    obj,
                    MethodSlot(0),
                    DuplicateId::ALL_LOCAL,
                )
            })
            .unwrap()
            .unwrap();
        assert_eq!(resolved, local_impl);
    }

    #[test]
    fn accel_dispatch_on_local_object_is_cheaper() {
        let (mut reg, entity, _, base_update, _) = registry_with_hierarchy();
        let local_impl = reg.fresh_fn("Entity::update [local]");
        let mut domain = Domain::new();
        domain.add(base_update, &[(DuplicateId::ALL_LOCAL, local_impl)]);

        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let outer_obj = m.alloc_main(64, 16).unwrap();
        m.main_mut().write_pod(outer_obj, &entity.0).unwrap();

        let (outer_cost, local_cost) = m
            .offload(0)
            .run(|ctx| -> Result<(u64, u64), SimError> {
                let t0 = ctx.now();
                accel_virtual_dispatch(
                    ctx,
                    &reg,
                    &domain,
                    outer_obj,
                    MethodSlot(0),
                    DuplicateId::ALL_LOCAL,
                )?;
                let outer_cost = ctx.now() - t0;

                let local_obj = ctx.alloc_local(64, 16)?;
                ctx.local_write_pod(local_obj, &entity.0)?;
                let t1 = ctx.now();
                accel_virtual_dispatch(
                    ctx,
                    &reg,
                    &domain,
                    local_obj,
                    MethodSlot(0),
                    DuplicateId::ALL_LOCAL,
                )?;
                Ok((outer_cost, ctx.now() - t1))
            })
            .unwrap()
            .unwrap();
        assert!(
            local_cost * 5 < outer_cost,
            "header read dominates outer dispatch: {local_cost} vs {outer_cost}"
        );
    }

    #[test]
    fn accel_dispatch_miss_names_the_method() {
        let (reg, _, enemy, _, _) = registry_with_hierarchy();
        let domain = Domain::new(); // nothing annotated

        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let obj = m.alloc_main(64, 16).unwrap();
        m.main_mut().write_pod(obj, &enemy.0).unwrap();

        let err = m
            .offload(0)
            .run(|ctx| {
                accel_virtual_dispatch(
                    ctx,
                    &reg,
                    &domain,
                    obj,
                    MethodSlot(0),
                    DuplicateId::ALL_LOCAL,
                )
            })
            .unwrap()
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("Enemy::update"), "{text}");
        assert!(text.contains("domain annotation"), "{text}");
    }

    #[test]
    fn dispatch_rejects_unknown_class_and_missing_slot() {
        let (reg, entity, _, _, _) = registry_with_hierarchy();
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let obj = m.alloc_main(64, 16).unwrap();

        m.main_mut().write_pod(obj, &999u32).unwrap();
        let err = host_virtual_dispatch(&mut m, &reg, obj, MethodSlot(0)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Dispatch(DispatchFault::UnknownClass { raw: 999 })
        ));

        m.main_mut().write_pod(obj, &entity.0).unwrap();
        let err = host_virtual_dispatch(&mut m, &reg, obj, MethodSlot(7)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Dispatch(DispatchFault::NoSuchMethod { .. })
        ));
    }

    #[test]
    fn host_dispatch_resolves_and_charges() {
        let (reg, _, enemy, _, enemy_update) = registry_with_hierarchy();
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let obj = m.alloc_main(64, 16).unwrap();
        m.main_mut().write_pod(obj, &enemy.0).unwrap();
        let t0 = m.host_now();
        let resolved = host_virtual_dispatch(&mut m, &reg, obj, MethodSlot(0)).unwrap();
        assert_eq!(resolved, enemy_update);
        assert_eq!(m.host_now() - t0, m.cost().host_mem_access + m.cost().vcall);
    }

    #[test]
    fn method_table_registers_and_calls() {
        let mut table: MethodTable<Box<dyn Fn(i32) -> i32>> = MethodTable::new();
        assert!(table.is_empty());
        table.register(FnAddr(1), Box::new(|x| x + 1));
        table.register(FnAddr(2), Box::new(|x| x * 2));
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(FnAddr(1)).unwrap()(10), 11);
        assert_eq!(table.get(FnAddr(2)).unwrap()(10), 20);
        assert!(table.get(FnAddr(3)).is_none());
    }

    #[test]
    fn class_header_helpers() {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let obj = m.alloc_main(64, 16).unwrap();
        set_class(&mut m, obj, ClassId(5)).unwrap();
        assert_eq!(class_of(&m, obj).unwrap(), ClassId(5));
    }
}
